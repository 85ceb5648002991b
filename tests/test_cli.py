"""Command-line interface: records, exit codes, tables, flag parsing."""

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
from pathlib import Path
import shlex
import subprocess
import sys
import tempfile

import pytest

from airyprod import (GreensParams, __version__, airy, checks, cli, errors, greens_time_integral,
                      quadrature, scaled_vars)
from airyprod.cli import main, parse_complex
from pathcheck import assert_pinned


def _fields(line):
    out = {}
    for token in line.split():
        key, _, value = token.partition("=")
        out[key] = value
    return out


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def _failure(capsys, argv, code):
    """The stderr of ``airyprod argv``, which must exit with ``code`` and
    print nothing on stdout."""
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == code and captured.out == ""
    return captured.err


def _record(capsys, argv):
    """The fields of the last record that ``airyprod argv`` prints; it
    must exit 0."""
    rc, out = _run(capsys, argv)
    assert rc == 0
    return _fields(out.strip().splitlines()[-1])


def test_eval_zero_point(capsys):
    rec = _record(capsys, ["eval", "u+", "--z", "0+0i", "--z0", "0+0i"])
    assert rec["sector"] == "zero"
    assert rec["route"] == "direct"
    assert float(rec["re"]) == pytest.approx(airy(0).ai.real ** 2, abs=1e-15)
    assert float(rec["im"]) == 0.0
    # 17 significant digits round-trip a double exactly
    assert float(rec["re"]) == airy(0).ai.real ** 2


def test_eval_difference_vanishes_at_zero_shift(capsys):
    rec = _record(capsys, ["eval", "diff+", "--z", "1+0i", "--z0", "0+0i",
                           "--route", "contour"])
    assert math.hypot(float(rec["re"]), float(rec["im"])) <= 1e-10


def test_eval_negative_shift_exit_code(capsys):
    _failure(capsys, ["eval", "w-real+", "--x", "0", "--x0", "-1"], 2)


def test_eval_contour_beyond_geometry_edge_exit(capsys):
    # |z + z0/2| = 232 lies past the contour geometry's edge at 231.03
    _failure(capsys, ["eval", "u+", "--z", "232", "--z0", "0", "--route", "contour"], 2)


def test_eval_contour_modulus_overflow_exit(capsys):
    # finite parts whose modulus |z0| leaves float64: the geometry error of
    # the neighbouring --z0 1e308+1e308i, not an OverflowError traceback
    err = _failure(capsys, ["eval", "u+", "--z", "1", "--z0", "1.5e308+1.5e308i", "--route",
                            "contour"], 2)
    assert err.startswith("error: ") and err.count("\n") == 1


def test_eval_direct_argument_overflow_exit(capsys):
    # z + z0 leaves float64 for finite --z and --z0: past the oracle's
    # envelope, not a non-finite argument
    err = _failure(capsys, ["eval", "u+", "--z", "1e308", "--z0", "1e308"], 2)
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "finite" not in err


def test_eval_contour_miss_exit(capsys):
    # a real quadrature miss, not a patched one: exit 3 and no data
    err = _failure(capsys, ["eval", "u+", "--z=3.454227064669872+6.2517801904203925i", "--z0",
                            "0", "--route", "contour", "--tol", "1e-14"], 3)
    assert err.startswith("quadrature failure:")
    assert "(stop: plateau)" in err


def test_eval_requires_arguments(capsys):
    _failure(capsys, ["eval", "u+"], 2)


@pytest.mark.parametrize("z,z0", [("0.7-0.4i", "-1.1+0.3i"), ("-0.7-0.4i", "-2"),
                                  ("-i", "-.5i")])
def test_eval_negative_complex_literals(capsys, z, z0):
    # a separate value with a leading minus reads as the option's value,
    # exactly as the attached --z=... form does
    rc, out = _run(capsys, ["eval", "w+", "--z", z, "--z0", z0])
    assert rc == 0
    rc_eq, out_eq = _run(capsys, ["eval", "w+", f"--z={z}", f"--z0={z0}"])
    assert rc_eq == 0 and out == out_eq
    rec = _fields(out.strip())
    assert complex(rec["z0"].replace("i", "j")) == parse_complex(z0)


def test_python_dash_m_entry_point():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "airyprod", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert done.stdout.strip() == __version__


_ERROR_EXITS = [(cls, 3 if cls is errors.ToleranceNotMet else 2)
                for cls in vars(errors).values()
                if isinstance(cls, type) and issubclass(cls, errors.AiryprodError)]
_ERROR_EXITS += [(ValueError, 2), (OSError, 4)]
_STDERR_PREFIX = {2: "error: ", 3: "quadrature failure: ", 4: "i/o error: "}


@pytest.mark.parametrize("exc,code", _ERROR_EXITS, ids=lambda v: getattr(v, "__name__", str(v)))
def test_error_exit_codes(monkeypatch, capsys, exc, code):
    def fail(ns):
        raise exc("boom")

    monkeypatch.setattr(cli, "_cmd_eval", fail)
    assert main(["eval", "u+", "--z", "0", "--z0", "0"]) == code
    assert capsys.readouterr().err == _STDERR_PREFIX[code] + "boom\n"


def test_eval_product_rotations(capsys):
    rec = _record(capsys, ["eval", "product", "--rot1", "+", "--rot2", "-",
                           "--z", "2i", "--z0", "1", "--route", "contour"])
    assert rec["route"] == "contour"
    assert abs(float(rec["abs_err"])) < 1e-8


def cli_run(argv):
    """``airyprod argv`` in a new temporary directory: its exit code, its
    stdout, and the SHA-256 of its stdout and of each file it writes, by
    name."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), \
            contextlib.redirect_stdout(out):
        rc = main(argv)
        outputs = {" ".join(argv): out.getvalue().encode(),
                   **{path.name: path.read_bytes() for path in Path(tmp).iterdir()}}
    return rc, out.getvalue(), {name: hashlib.sha256(data).hexdigest()
                                for name, data in outputs.items()}


def _readme_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines()]
    assert commands and all(argv[0] == "airyprod" for argv in commands)
    return [argv[1:] for argv in commands]


_VERIFY_RUNS = (["--count", "6", "--seed", "3"], [])


def cli_digests():
    """The SHA-256 of the stdout of each verify suite at a short and at its
    default count and of each README command line, and of the table files
    those write: the contour-route and Green's-function digits follow
    numpy's float64 exp and log loops, and under the baseline loops the
    ODE residuals follow its complex multiply and absolute value too."""
    commands = [["verify", suite, *extra] for suite in sorted(checks.SUITES)
                for extra in _VERIFY_RUNS] + _readme_commands()
    return {name: digest for argv in commands for name, digest in cli_run(argv)[2].items()}


@pytest.mark.parametrize("suite", sorted(checks.SUITES))
def test_verify_suites_pass(suite):
    digests = {}
    for extra in _VERIFY_RUNS:
        rc, out, run = cli_run(["verify", suite, *extra])
        assert rc == 0
        summary = _fields(out.strip().splitlines()[-1])
        assert summary["status"] == "PASS"
        assert int(summary["failures"]) == 0
        digests.update(run)
    for name, digest in digests.items():
        assert_pinned(name, digest)


def test_verify_deterministic(capsys):
    rc1, out1 = _run(capsys, ["verify", "ode", "--count", "5", "--seed", "9"])
    rc2, out2 = _run(capsys, ["verify", "ode", "--count", "5", "--seed", "9"])
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_table_product_csv(tmp_path, capsys):
    out_file = tmp_path / "prod.csv"
    argv = ["table", "product", "--out", str(out_file),
            "--count-x", "3", "--count-x0", "2",
            "--x-min", "-1", "--x-max", "1", "--x0-min", "0", "--x0-max", "1"]
    rc, _ = _run(capsys, argv)
    assert rc == 0
    text = out_file.read_bytes()
    lines = text.decode().splitlines()
    assert lines[0] == "x,x0,re,im,abs_err"
    assert len(lines) == 1 + 3 * 2
    assert b"\r" not in text
    # byte-stable rerun
    rc, _ = _run(capsys, argv)
    assert out_file.read_bytes() == text


def test_table_product_zero_shift_reduces(tmp_path, capsys):
    out_file = tmp_path / "p.csv"
    rc, _ = _run(capsys, ["table", "product", "--out", str(out_file),
                          "--rot1", "0", "--rot2", "+",
                          "--count-x", "4", "--count-x0", "1",
                          "--x-min", "-2", "--x-max", "2",
                          "--x0-min", "0", "--x0-max", "0"])
    assert rc == 0
    import csv

    from airyprod import w_pm
    with open(out_file) as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        ref = w_pm(+1, float(row["x"]), 0.0).value
        assert complex(float(row["re"]), float(row["im"])) == pytest.approx(ref, abs=1e-12)


def test_table_greens_json(tmp_path, capsys):
    out_file = tmp_path / "g.json"
    rc, _ = _run(capsys, ["table", "greens", "--out", str(out_file),
                          "--format", "json", "--eta-count", "5",
                          "--xi", "0.3", "--field", "0.2"])
    assert rc == 0
    records = json.loads(out_file.read_text())
    assert len(records) == 5
    assert records[0]["eta"] == pytest.approx(0.1)
    assert records[-1]["eta"] == pytest.approx(5.0)
    assert all(r["xi"] == pytest.approx(0.3) for r in records)


@pytest.mark.parametrize("xi, field, count", [(0, 0.1, 50), (3, 0.1, 10), (-5, 0.5, 10),
                                              (2, 0.02, 10)])
def test_table_greens_abs_err_bounds_mpmath(tmp_path, capsys, xi, field, count):
    # abs_err is the fixed bound 4e-13 |G|, not an estimate: it must cover
    # the distance to G at the xi, eta and |r - r'| the code forms (the
    # worst relative error on these grids is about 1e-14)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    out_file = tmp_path / "g.json"
    rc, _ = _run(capsys, ["table", "greens", "--out", str(out_file), "--format", "json",
                          "--xi", str(xi), "--field", str(field), "--eta-count", str(count)])
    assert rc == 0
    w = mp.exp(2j * mp.pi / 3)
    for rec in json.loads(out_file.read_text()):
        p = GreensParams.make(rec["energy"], (0, 0, rec["field"]), (0, 0, rec["separation"]),
                              (0, 0, 0))
        sv = scaled_vars(p)
        a, b = mp.mpf(sv.xi) + sv.eta, w * (mp.mpf(sv.xi) - sv.eta)
        deriv = mp.airyai(a, 1) * mp.airyai(b) - w * mp.airyai(a) * mp.airyai(b, 1)
        ref = complex(-mp.exp(1j * mp.pi / 6) / p.separation * deriv)
        assert abs(complex(rec["re"], rec["im"]) - ref) <= rec["abs_err"], rec


def test_table_bad_path_exit_code(tmp_path, capsys):
    _failure(capsys, ["table", "product", "--out", str(tmp_path / "nodir" / "x.csv")], 4)


def test_greens_point_and_zero_field_routing(capsys):
    rec = _record(capsys, ["greens", "--energy", "0.5", "--field", "0,0,0.1",
                           "--r", "1,0,0", "--r-prime", "0,0,0"])
    assert rec["method"] == "closed"
    assert "xi" in rec and "eta" in rec
    rec = _record(capsys, ["greens", "--energy", "0.5", "--field", "0,0,0",
                           "--r", "1,0,0", "--r-prime", "0,0,0"])
    assert rec["method"] == "free"  # zero field routes to the free form


def test_greens_integral_method(capsys):
    # the time integral runs at --tol as given, over the whole accepted range
    p = GreensParams.make(0.5, (0, 0, 0.1), (1, 0, 0), (0, 0, 0))
    for tol in ("1e-14", "1e-10", "1e-4"):
        rec = _record(capsys, ["greens", "--energy", "0.5", "--field", "0,0,0.1", "--r", "1,0,0",
                               "--r-prime", "0,0,0", "--method", "integral", "--tol", tol])
        g = greens_time_integral(p, float(tol))
        assert rec["method"] == "integral"
        assert (rec["re"], rec["im"]) == (format(g.real, ".17g"), format(g.imag, ".17g")), tol


def test_verify_greens_at_tightest_tol(capsys):
    # verify passes --tol to the time integral unchanged, and at the
    # tightest accepted tolerance every case still meets its bound
    summary = _record(capsys, ["verify", "greens", "--count", "3", "--tol", "1e-14"])
    assert (summary["failures"], summary["status"]) == ("0", "PASS")


def test_greens_integral_zero_field_tiny_energy(capsys):
    # at E = 1e-300 the decay leg's span log(r_j / r_min) overflows; capped
    # at 2 lam it gives the free wave, which is 1/(2 pi |r - r'|) here
    rec = _record(capsys, ["greens", "--energy", "1e-300", "--field", "0,0,0",
                           "--r", "1e-5,0,0", "--r-prime", "0,0,0", "--method", "integral"])
    g = complex(float(rec["re"]), float(rec["im"]))
    assert abs(g - 1.0 / (2.0 * math.pi * 1e-5)) <= 1e-8 / (2.0 * math.pi * 1e-5)


def test_greens_closed_weak_field_exit(capsys):
    # the closed form leaves float64 at xi = 175 (EnvelopeExceeded)
    _failure(capsys, ["greens", "--energy", "-0.3", "--field", "0,0,1e-4",
                      "--r", "1,0,0", "--r-prime", "0,0,0", "--method", "closed"], 2)


def test_greens_integral_overflow_on_path_exit(capsys):
    # E = 1e100 is finite, but the integrand overflows on the first round's
    # nodes: the quadrature stops as non_finite before any exponential
    err = _failure(capsys, ["greens", "--energy", "1e100", "--field", "0,0,0.1", "--r", "1,0,0",
                            "--r-prime", "0,0,0", "--method", "integral"], 3)
    assert err.startswith("quadrature failure: ")
    assert err.endswith("after 0 nodes (stop: non_finite)\n")


@pytest.mark.parametrize("argv", [
    pytest.param(["greens", "--energy", "0.5", "--field", "0,0", "--r", "1,0,0",
                  "--r-prime", "0,0,0"], id="greens-two-component-field"),
    pytest.param(["table", "greens", "--out", "g.json", "--field", "0"],
                 id="table-greens-zero-field"),
    pytest.param(["verify", "ode", "--count", "0"], id="verify-zero-count"),
    # a flag that its subcommand, target or name does not read
    pytest.param(["verify", "routes", "--count", "1", "--format", "json"],
                 id="verify-format"),
    pytest.param(["eval", "u+", "--z", "1", "--z0", "0", "--seed", "3"], id="eval-seed"),
    pytest.param(["table", "greens", "--out", "g.csv", "--rot1", "+", "--route", "contour",
                  "--tol", "1e-5"], id="table-greens-product-flags"),
    pytest.param(["greens", "--energy", "0.5", "--field", "0,0,0.1", "--r", "1,0,0",
                  "--r-prime", "0,0,0", "--format", "json"], id="greens-format"),
    pytest.param(["eval", "w-real+", "--x", "0", "--x0", "1", "--route", "contour"],
                 id="eval-real-route"),
    pytest.param(["table", "greens", "--out", "g.csv", "--tol", "1e-8"],
                 id="table-greens-tol"),
    pytest.param(["verify", "ode", "--config", "x.cfg"], id="verify-config"),
    # --tol outside [1e-14, 1e-4]
    pytest.param(["eval", "u+", "--z", "1", "--z0", "0", "--tol", "1.0"],
                 id="eval-tol-out-of-range"),
    pytest.param(["verify", "ode", "--count", "3", "--tol", "1.0"],
                 id="verify-tol-out-of-range"),
    pytest.param(["table", "product", "--out", "p.csv", "--tol", "1.0"],
                 id="table-product-tol-out-of-range"),
    pytest.param(["greens", "--energy", "0.5", "--field", "0,0,0.1", "--r", "1,0,0",
                  "--r-prime", "0,0,0", "--tol", "1.0"], id="greens-tol-out-of-range"),
    pytest.param(["table", "greens", "--out", "g.csv", "--eta-min", "-1", "--eta-count", "3"],
                 id="table-greens-negative-eta"),
    pytest.param(["table", "greens", "--out", "g.csv", "--eta-min", "0"],
                 id="table-greens-zero-eta"),
    # finite inputs that overflow float64 on the way to a value
    pytest.param(["eval", "w+", "--z", "-5e154", "--z0", "1e155", "--route", "contour"],
                 id="eval-overflow-shift"),
    pytest.param(["greens", "--energy", "0.5", "--field", "0,0,1e200", "--r", "1,0,0",
                  "--r-prime", "0,0,0", "--method", "integral"], id="greens-overflow-field"),
    pytest.param(["greens", "--energy", "1e308", "--field", "0,0,0.1", "--r", "1,0,0",
                  "--r-prime", "0,0,0", "--method", "free"], id="greens-overflow-energy"),
    pytest.param(["greens", "--energy", "0.5", "--field", "0,0,0.1", "--r", "1e200,0,0",
                  "--r-prime", "0,0,0", "--method", "free"], id="greens-overflow-r"),
    # the time integral's tail would reach past t = 1e8: no usable path
    pytest.param(["greens", "--energy", "0.02", "--field", "0,0,1e-9", "--r", "1,0,0",
                  "--r-prime", "0,0,0", "--method", "integral"], id="greens-tail-past-cap"),
    # so would its path through the stationary point t = 2e9
    pytest.param(["greens", "--energy", "0.5", "--field", "0,0,1e-9", "--r", "1,0,0",
                  "--r-prime", "0,0,0", "--method", "integral"],
                 id="greens-stationary-point-past-cap"),
])
def test_validation_exits(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    _failure(capsys, argv, 2)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, usage", [
    pytest.param(["verify", "routes", "--count", "1", "--format", "json"],
                 "usage: airyprod verify ", id="verify"),
    pytest.param(["table", "greens", "--out", "g.csv", "--rot1", "+"],
                 "usage: airyprod table greens ", id="table-greens"),
    pytest.param(["eval", "u+", "--z", "1", "--z0", "0", "--seed", "3"],
                 "usage: airyprod eval u+ ", id="eval-name"),
])
def test_unknown_flag_reports_its_subcommand_usage(tmp_path, monkeypatch, capsys, argv,
                                                   usage):
    monkeypatch.chdir(tmp_path)
    err = _failure(capsys, argv, 2)
    assert err.startswith(usage)
    assert "error: unrecognized arguments: " + " ".join(argv[-2:]) in err
    assert not any(tmp_path.iterdir())


def test_help_and_version_exit_zero(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == __version__ + "\n"
    assert main(["verify", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: airyprod verify ")


def test_verify_failure_exit(monkeypatch, capsys):
    def suite(count, seed, tol):
        return [("passing", 0.0, 0.5), ("failing", 1.0, 0.5)]

    monkeypatch.setitem(checks.SUITES, "ode", (suite, 2))
    rc, out = _run(capsys, ["verify", "ode"])
    assert rc == 1
    records = [_fields(line) for line in out.splitlines()]
    assert [r["status"] for r in records] == ["pass", "FAIL", "FAIL"]
    assert records[-1]["failures"] == "1"
    assert records[-1]["max_ratio"] == "2"


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: " ".join(argv[:2]))
def test_readme_command_lines(argv):
    rc, out, digests = cli_run(argv)
    assert rc == 0 and out.endswith("\n")
    for name, digest in digests.items():
        assert_pinned(name, digest)


def test_greens_underflowing_separation(capsys):
    # |r - r'|^2 = 1e-340 underflows but |r - r'| does not: G is the near
    # field 1/(2 pi |r - r'|)
    rec = _record(capsys, ["greens", "--energy", "0.5", "--field", "0,0,0.1",
                           "--r", "1e-170,0,0", "--r-prime", "0,0,0"])
    assert float(rec["separation"]) == 1e-170
    assert float(rec["re"]) == pytest.approx(1.0 / (2.0 * math.pi * 1e-170), rel=1e-13)


def test_greens_coincident_points_exit(capsys):
    _failure(capsys, ["greens", "--energy", "0.5", "--field", "0,0,0.1",
                      "--r", "1,0,0", "--r-prime", "1,0,0"], 2)


def test_greens_non_finite_energy_exit(capsys):
    _failure(capsys, ["greens", "--energy", "nan", "--field", "0,0,0.1",
                      "--r", "1,0,0", "--r-prime", "0,0,0", "--method", "free"], 2)


def test_omitted_flags_take_defaults(tmp_path, monkeypatch, capsys):
    rc, out = _run(capsys, ["verify", "ode", "--count", "5"])
    assert rc == 0
    assert (rc, out) == _run(capsys, ["verify", "ode", "--count", "5",
                                      "--seed", "20240901", "--tol", "1e-10"])
    monkeypatch.chdir(tmp_path)
    tables = []
    for fmt in ([], ["--format", "csv"]):
        rc, _ = _run(capsys, ["table", "product", "--out", "p.csv", "--count-x", "3",
                              "--count-x0", "2", *fmt])
        assert rc == 0
        tables.append((tmp_path / "p.csv").read_bytes())
    assert tables[0] == tables[1]
    # an omitted --tol is the library's one default, on every command that
    # takes it
    for argv in (["eval", "u+", "--z", "1", "--z0", "0"], ["verify", "routes"],
                 ["table", "product", "--out", "p.csv"],
                 ["greens", "--energy", "0.5", "--field", "0,0,0.1", "--r", "1,0,0",
                  "--r-prime", "0,0,0"]):
        assert cli._build_parser().parse_args(argv).tol is quadrature.DEFAULT_TOL, argv


@pytest.mark.parametrize("argv,attached", [
    pytest.param(["eval", "aiai-real", "--x", "0", "--x0", "-1e-3"], "--x0=-1e-3",
                 id="eval-x0"),
    pytest.param(["greens", "--energy", "-3e-1", "--field", "0,0,0.1", "--r", "1,0,0",
                  "--r-prime", "0,0,0"], "--energy=-3e-1", id="greens-energy"),
    pytest.param(["table", "product", "--out", "p.csv", "--x-min", "-1e1", "--count-x", "3",
                  "--count-x0", "2"], "--x-min=-1e1", id="table-x-min"),
    pytest.param(["greens", "--energy", "0.5", "--field", "-0.1,0,0", "--r", "1,0,0",
                  "--r-prime", "0,0,0"], "--field=-0.1,0,0", id="greens-field"),
])
def test_negative_option_values(tmp_path, monkeypatch, capsys, argv, attached):
    # a separate value with a leading minus reads as the option's value,
    # exactly as the attached --opt=value form does
    monkeypatch.chdir(tmp_path)
    i = argv.index(attached.split("=")[0])
    rc, out = _run(capsys, argv)
    written = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
    assert rc == 0
    rc_eq, out_eq = _run(capsys, argv[:i] + [attached] + argv[i + 2:])
    assert rc_eq == 0 and out == out_eq
    assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == written


@pytest.mark.parametrize("text,expected", [
    ("1", 1 + 0j),
    ("-2.5", -2.5 + 0j),
    ("2i", 2j),
    ("-0.5i", -0.5j),
    ("1+2i", 1 + 2j),
    ("1-2i", 1 - 2j),
    ("1.5e-3+2e-4i", 1.5e-3 + 2e-4j),
    ("-1e2-3i", -100 - 3j),
    ("i", 1j),
    ("-i", -1j),
    ("-0-0i", complex(-0.0, -0.0)),
    ("1e+5i", 1e5j),
    ("nani", complex(0.0, math.nan)),
    ("(1+2j)", 1 + 2j),
])
def test_parse_complex(text, expected):
    got = parse_complex(text)
    if cmath.isnan(expected):
        assert repr(got) == repr(expected)
    else:
        assert got == expected


def test_parse_complex_keeps_signed_zeros():
    got = parse_complex("-0-0i")
    assert math.copysign(1.0, got.real) == math.copysign(1.0, got.imag) == -1.0


def test_parse_complex_rejects_garbage():
    with pytest.raises(ValueError):
        parse_complex("")
    for text in ("1+2", "1-", "+-1i"):
        with pytest.raises(ValueError):
            parse_complex(text)
