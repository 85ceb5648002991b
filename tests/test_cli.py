"""Command-line interface: records, exit codes, tables, flag parsing."""

import cmath
import hashlib
import json
import math
import os
from pathlib import Path
import shlex
import subprocess
import sys

import pytest

from airyprod import (GreensParams, __version__, airy, checks, cli, errors, greens_time_integral,
                      scaled_vars)
from airyprod.cli import main, parse_complex
from pathcheck import float_kernels


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


def test_eval_zero_point(capsys):
    rc, out = _run(capsys, ["eval", "u+", "--z", "0+0i", "--z0", "0+0i"])
    assert rc == 0
    rec = _fields(out.strip())
    assert rec["sector"] == "zero"
    assert rec["route"] == "direct"
    assert float(rec["re"]) == pytest.approx(airy(0).ai.real ** 2, abs=1e-15)
    assert float(rec["im"]) == 0.0
    # 17 significant digits round-trip a double exactly
    assert float(rec["re"]) == airy(0).ai.real ** 2


def test_eval_difference_vanishes_at_zero_shift(capsys):
    rc, out = _run(capsys, ["eval", "diff+", "--z", "1+0i", "--z0", "0+0i",
                            "--route", "contour"])
    assert rc == 0
    rec = _fields(out.strip())
    assert math.hypot(float(rec["re"]), float(rec["im"])) <= 1e-10


def test_eval_negative_shift_exit_code(capsys):
    rc, _ = _run(capsys, ["eval", "w-real+", "--x", "0", "--x0", "-1"])
    assert rc == 2


def test_eval_contour_beyond_geometry_edge_exit(capsys):
    # |z + z0/2| = 232 lies past the contour geometry's edge at 231.03
    rc, out = _run(capsys, ["eval", "u+", "--z", "232", "--z0", "0", "--route", "contour"])
    assert rc == 2 and out == ""


def test_eval_contour_miss_exit(capsys):
    # a real quadrature miss, not a patched one: exit 3 and no data
    rc = main(["eval", "u+", "--z=-10+0.5i", "--z0", "0", "--route", "contour",
               "--tol", "1e-14"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err.startswith("quadrature failure:")
    assert "(stop: plateau)" in captured.err


def test_eval_requires_arguments(capsys):
    rc, _ = _run(capsys, ["eval", "u+"])
    assert rc == 2


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
    rc, out = _run(capsys, ["eval", "product", "--rot1", "+", "--rot2", "-",
                            "--z", "2i", "--z0", "1", "--route", "contour"])
    assert rc == 0
    rec = _fields(out.strip())
    assert rec["route"] == "contour"
    assert abs(float(rec["abs_err"])) < 1e-8


# SHA-256 of the stdout of each verify run below and of each README command
# line, and of the table files those write.  The contour-route and
# Green's-function digits follow numpy's float64 exp and log loops, and
# under the baseline loops the ODE residuals follow its complex multiply
# and absolute value too (hence the baseline ``verify ode`` digests), so
# one set is recorded per ``float_kernels()`` key; under the X86_V3 loops
# (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR") and the baseline
# loops (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR X86_V3") the
# outputs not listed again keep their bytes.
_V4_DIGESTS = {
    "verify ode --count 6 --seed 3":
        "78853d3a670d0f711091faa658d18a808db6bfcd02b74ff8ccae4019cae9c1aa",
    "verify ode": "4d387ad1e75b14ac9b48cc6ac71cc6e6f18ea6ab3fd63c5fac0b97f641d52770",
    "verify routes --count 6 --seed 3":
        "cb50e05a0bc8ac686cfb272468733ba1f879ca02da300062a1abeabfa2d340ed",
    "verify routes": "aeb861e91d8ef29d3a402fda98f86a8658a8667d9eb238d00dfc61a5aa58aa8b",
    "verify identities --count 6 --seed 3":
        "a02a286b1f3fc67f08fd06ac5d52cad0fa20c6337b75e2c9297b1fb9b330a484",
    "verify identities": "59404786b87a00c73436c174bd26ba6aad86a2e82faf6f97b828d80e49b73d1d",
    "verify contour-relation --count 6 --seed 3":
        "bbcbbc9efb9d4b07dfc7aef83415248b276ea20f593338af02fe65ba43a4c938",
    "verify contour-relation": "bb9a9d0a996985ce3e89dbb3f8316e33f19fed26d8b80afce02d6fc0cfbb4847",
    "verify greens --count 6 --seed 3":
        "6739a8b67abbb3619500b25e348ef813e0d877bc9dbe7b0adae183895a411e38",
    "verify greens": "4ceea197d30d3aa08b27a71dc53b2fa86afdee0e0d217e643cc364ed01b21b5b",
    "eval u+ --z 1+0.5i --z0 0.3 --route contour":
        "4c9632a125f1b2cfa5f0710c3e3690d7b5378a072a2cca697b3f51d32ee15c64",
    "eval w+ --z 0.7-0.4i --z0 -1.1+0.3i":
        "86bb85a9cc1ddbef751977ae0a81b25f425665c536bb2c2c0188f4ab1978e536",
    "eval w-real+ --x 0 --x0 1":
        "a85a934b41da5a5bd3d7aa0cd411368148ca96712da4939eaf1cbe1dbf27ce91",
    "verify identities --count 100 --seed 7":
        "b635e21af4c3c900a9b36c771238cb6066994f1251946e3080ed4430658c2d3e",
    "table product --out prod.csv --count-x 21 --count-x0 5":
        "178592cd87bbd9185da12b168c41ccbaf8ffbab1b8ab6688bec358983bb36465",
    "prod.csv": "0c90c3b85ccafc282fab1c2211f036b226e785865ece34bddf6cae1cefe9a54f",
    "table greens --out g.json --format json --xi 0 --field 0.1":
        "a489580443cf2e04b6f9f96a8409ec4e9a67b50cbbc6b0fa86bdb0cce41993fb",
    "g.json": "456fa2add0f5b2dcc68f5016aeec348c62d6588094826e971819f7679753623f",
    "greens --energy 0.5 --field 0,0,0.1 --r 1,0,0 --r-prime 0,0,0":
        "989f166312cba084ec32d2b458fc6c2a89177dd14f55dbf29908fa79c8c2c991",
}
_DIGESTS = {
    ("2.4", "X86_V4", "X86_V4"): _V4_DIGESTS,
    ("2.4", "X86_V3", "X86_V3"): {
        **_V4_DIGESTS,
        "eval w-real+ --x 0 --x0 1":
            "5e6a9c1cfdde2349395c7b0632f3872f70d95932611751b750addb67a52ac039",
        "verify contour-relation":
            "827196cdaca8d00fe810df488c6a2ef3dbbd8369a0bd6897516604d4937013b1",
        "verify contour-relation --count 6 --seed 3":
            "1a3a47158c4180c9adbd3f42dbd887d668eb01a870773500a55b45d5bc508ea7",
        "verify greens": "bd55e134b7a9c426535e0fceb439a88484bd651f1a3dea2540eb02fdc0d9697a",
    },
    ("2.4", "baseline(X86_V2)", "baseline(X86_V2)"): {
        **_V4_DIGESTS,
        "eval u+ --z 1+0.5i --z0 0.3 --route contour":
            "ed8c3333b8954dc4f60099c515782f9d0d39091f22512cc4d602f5f32abe90e2",
        "eval w-real+ --x 0 --x0 1":
            "5e6a9c1cfdde2349395c7b0632f3872f70d95932611751b750addb67a52ac039",
        "verify contour-relation":
            "9c31f68c28dc3f4c89fa9df936c765734341ef0bcfb00a30b168c4183823e478",
        "verify contour-relation --count 6 --seed 3":
            "807b5961cca53efb48b1dbd79239f81cbaee4e2bf301b966dc33f3c10d38df2f",
        "verify greens --count 6 --seed 3":
            "af282df58fb7d37681c64fae1e2dfe239d96f00cefe9556fc583fc7582dabc97",
        "verify greens": "5d3b978bba1b82f4f09e5dd7383b9da0de0b25e7a4e7f8c57742002594fa210b",
        "verify ode --count 6 --seed 3":
            "68479de0a1e966b8998bcb5d715080387d96c9a16f3d213dcb739920b25d74df",
        "verify ode": "0384bbeca919f06e66eb423af5954182aae0f71b1a3bd3d7f60ae54e6d3f3ecb",
        "verify routes --count 6 --seed 3":
            "14853882ad29d18420094bdc43f5f265e40a3b107d9202ca1fad1cc539ac2e39",
        "verify routes": "ad07a7e933f385752356e3cb0326d70f54d713ad0b51c675deb24548504c6f6a",
    },
}


def _digests_match(outputs):
    """Each (name, bytes) against its recorded digest; a skip where none
    is recorded for this host's numpy loops."""
    digests = _DIGESTS.get(float_kernels())
    if digests is None:
        pytest.skip(f"no digests recorded for numpy loops {float_kernels()}")
    for name, data in outputs:
        assert hashlib.sha256(data).hexdigest() == digests[name], name


@pytest.mark.parametrize("suite", sorted(checks.SUITES))
def test_verify_suites_pass(capsys, suite):
    outputs = []
    for extra in (["--count", "6", "--seed", "3"], []):
        argv = ["verify", suite, *extra]
        rc, out = _run(capsys, argv)
        assert rc == 0
        summary = _fields(out.strip().splitlines()[-1])
        assert summary["status"] == "PASS"
        assert int(summary["failures"]) == 0
        outputs.append((" ".join(argv), out.encode()))
    _digests_match(outputs)


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
    rc, _ = _run(capsys, ["table", "product", "--out",
                          str(tmp_path / "nodir" / "x.csv")])
    assert rc == 4


def test_greens_point_and_zero_field_routing(capsys):
    rc, out = _run(capsys, ["greens", "--energy", "0.5", "--field", "0,0,0.1",
                            "--r", "1,0,0", "--r-prime", "0,0,0"])
    assert rc == 0
    rec = _fields(out.strip())
    assert rec["method"] == "closed"
    assert "xi" in rec and "eta" in rec
    rc, out = _run(capsys, ["greens", "--energy", "0.5", "--field", "0,0,0",
                            "--r", "1,0,0", "--r-prime", "0,0,0"])
    assert rc == 0
    rec = _fields(out.strip())
    assert rec["method"] == "free"  # zero field routes to the free form


def test_greens_integral_method(capsys):
    # the time integral runs at --tol raised to 1e-9 at least
    rc, out = _run(capsys, ["greens", "--energy", "0.5", "--field", "0,0,0.1",
                            "--r", "1,0,0", "--r-prime", "0,0,0", "--method", "integral"])
    assert rc == 0
    rec = _fields(out.strip())
    g = greens_time_integral(GreensParams.make(0.5, (0, 0, 0.1), (1, 0, 0), (0, 0, 0)), 1e-9)
    assert rec["method"] == "integral"
    assert (rec["re"], rec["im"]) == (format(g.real, ".17g"), format(g.imag, ".17g"))


def test_greens_integral_zero_field_tiny_energy(capsys):
    # at E = 1e-300 the decay leg's span log(r_j / r_min) overflows; capped
    # at 2 lam it gives the free wave, which is 1/(2 pi |r - r'|) here
    rc, out = _run(capsys, ["greens", "--energy", "1e-300", "--field", "0,0,0",
                            "--r", "1e-5,0,0", "--r-prime", "0,0,0", "--method", "integral"])
    assert rc == 0
    rec = _fields(out.strip())
    g = complex(float(rec["re"]), float(rec["im"]))
    assert abs(g - 1.0 / (2.0 * math.pi * 1e-5)) <= 1e-8 / (2.0 * math.pi * 1e-5)


def test_greens_closed_weak_field_exit(capsys):
    # the closed form leaves float64 at xi = 175 (EnvelopeExceeded)
    rc, out = _run(capsys, ["greens", "--energy", "-0.3", "--field", "0,0,1e-4",
                            "--r", "1,0,0", "--r-prime", "0,0,0", "--method", "closed"])
    assert rc == 2 and out == ""


def test_greens_integral_overflow_on_path_exit(capsys):
    # E = 1e100 is finite, but the integrand overflows on the first round's
    # nodes: the quadrature stops as non_finite before any exponential
    rc = main(["greens", "--energy", "1e100", "--field", "0,0,0.1", "--r", "1,0,0",
               "--r-prime", "0,0,0", "--method", "integral"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err.startswith("quadrature failure: ")
    assert captured.err.endswith("after 0 nodes (stop: non_finite)\n")


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
    rc, out = _run(capsys, argv)
    assert rc == 2 and out == ""
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
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith(usage)
    assert "error: unrecognized arguments: " + " ".join(argv[-2:]) in captured.err
    assert not any(tmp_path.iterdir())


def test_help_and_version_exit_zero(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == __version__ + "\n"
    assert main(["verify", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: airyprod verify ")


def test_verify_failure_exit(monkeypatch, capsys):
    def suite(count, seed, tol):
        return [("passing", 0.0, 0.5), ("failing", 1.0, 0.5)]

    monkeypatch.setitem(checks.SUITES, "ode", (suite, 2, 0.5))
    rc, out = _run(capsys, ["verify", "ode"])
    assert rc == 1
    records = [_fields(line) for line in out.splitlines()]
    assert [r["status"] for r in records] == ["pass", "FAIL", "FAIL"]
    assert records[-1]["failures"] == "1"


def _readme_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines()]
    assert commands and all(argv[0] == "airyprod" for argv in commands)
    return [argv[1:] for argv in commands]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: " ".join(argv[:2]))
def test_readme_command_lines(tmp_path, monkeypatch, capsys, argv):
    # the table lines write their files into the working directory
    monkeypatch.chdir(tmp_path)
    rc, out = _run(capsys, argv)
    assert rc == 0 and out.endswith("\n")
    outputs = [(" ".join(argv), out.encode())]
    if argv[0] == "table":
        path = tmp_path / _fields(out)["path"]
        outputs.append((path.name, path.read_bytes()))
    _digests_match(outputs)


def test_greens_underflowing_separation(capsys):
    # |r - r'|^2 = 1e-340 underflows but |r - r'| does not: G is the near
    # field 1/(2 pi |r - r'|)
    rc, out = _run(capsys, ["greens", "--energy", "0.5", "--field", "0,0,0.1",
                            "--r", "1e-170,0,0", "--r-prime", "0,0,0"])
    assert rc == 0
    rec = _fields(out.strip())
    assert float(rec["separation"]) == 1e-170
    assert float(rec["re"]) == pytest.approx(1.0 / (2.0 * math.pi * 1e-170), rel=1e-13)


def test_greens_coincident_points_exit(capsys):
    rc, _ = _run(capsys, ["greens", "--energy", "0.5", "--field", "0,0,0.1",
                          "--r", "1,0,0", "--r-prime", "1,0,0"])
    assert rc == 2


def test_greens_non_finite_energy_exit(capsys):
    rc, out = _run(capsys, ["greens", "--energy", "nan", "--field", "0,0,0.1",
                            "--r", "1,0,0", "--r-prime", "0,0,0", "--method", "free"])
    assert rc == 2 and out == ""


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
