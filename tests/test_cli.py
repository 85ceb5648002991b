"""Command-line interface: records, exit codes, tables, config files."""

import json
import math
import os
import subprocess
import sys

import pytest

from airyprod import ContourConfig, __version__, airy, cli, errors
from airyprod.cli import main
from airyprod.config import RunConfig, parse_complex


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


_QUAD_FAILURES = (errors.ToleranceNotMet, errors.EndpointSingularity)
_ERROR_EXITS = [(cls, 3 if cls in _QUAD_FAILURES else 2)
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


@pytest.mark.parametrize("suite", ["identities", "contour-relation"])
def test_verify_suites_pass(capsys, suite):
    rc, out = _run(capsys, ["verify", suite, "--count", "6", "--seed", "3"])
    assert rc == 0
    summary = _fields(out.strip().splitlines()[-1])
    assert summary["status"] == "PASS"
    assert int(summary["failures"]) == 0


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


def test_greens_coincident_points_exit(capsys):
    rc, _ = _run(capsys, ["greens", "--energy", "0.5", "--field", "0,0,0.1",
                          "--r", "1,0,0", "--r-prime", "1,0,0"])
    assert rc == 2


def test_greens_non_finite_energy_exit(capsys):
    rc, out = _run(capsys, ["greens", "--energy", "nan", "--field", "0,0,0.1",
                            "--r", "1,0,0", "--r-prime", "0,0,0", "--method", "free"])
    assert rc == 2 and out == ""


def test_config_file_round_trip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    # saddle_hint, turn_radius_factor and tail_angle_shift were settings of
    # earlier versions; files that still carry them keep loading
    cfg.write_text("# comment\nquad_tol = 1e-9\nseed = 4\nsaddle_hint = on\n"
                   "turn_radius_factor = 1.1\ntail_angle_shift = 0.05\n"
                   "max_nodes = 50000\ntail_tol = 1e-12\n")
    rc, out = _run(capsys, ["verify", "ode", "--config", str(cfg), "--count", "3"])
    assert rc == 0
    parsed = RunConfig.from_file(str(cfg))
    assert parsed.quad_tol == 1e-9
    assert parsed.seed == 4
    assert parsed.contour == ContourConfig(tail_tol=1e-12, max_nodes=50000)


def test_config_validation_exit(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("quad_tol = 1.0\n")
    rc, _ = _run(capsys, ["verify", "ode", "--config", str(cfg), "--count", "3"])
    assert rc == 2


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
])
def test_parse_complex(text, expected):
    assert parse_complex(text) == expected


def test_parse_complex_rejects_garbage():
    with pytest.raises(ValueError):
        parse_complex("")
    with pytest.raises(ValueError):
        parse_complex("1+2")
