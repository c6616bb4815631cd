import json
import os
import subprocess
import sys

import numpy as np
import pytest

from lorentzlab import cli
from lorentzlab.checks import verdict
from lorentzlab.clifford import build_gamma, check_clifford
from lorentzlab.dirac import check_temporal_axioms, flat_operator
from lorentzlab.distance import run_distance_suite
from lorentzlab.filtration import run_filtration_suite
from lorentzlab.moyal import run_moyal_suite
from lorentzlab.steepness import equivalence_scan


def run(argv, tmp_path, extra=()):
    return cli.main(list(argv) + ["--out", str(tmp_path)] + list(extra))


def test_verify_succeeds_and_writes_artifact(tmp_path, capsys):
    code = run(["verify", "--points", "12"], tmp_path)
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS" in text
    assert "FAIL" not in text
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["passed"] is True
    assert payload["config"]["points"] == 12


def test_verify_artifact_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert run(["verify", "--points", "12"], a) == 0
    assert run(["verify", "--points", "12"], b) == 0
    assert (a / "verify.json").read_bytes() == (b / "verify.json").read_bytes()
    assert (a / "verify.json").read_bytes().endswith(b"\n")
    assert b"\r" not in (a / "verify.json").read_bytes()


def test_distance_writes_csv(tmp_path):
    code = run(["distance", "--pairs", "10", "--points", "12"], tmp_path)
    assert code == 0
    lines = (tmp_path / "distance.csv").read_text().splitlines()
    assert lines[0] == "pair,dt,r,oracle,boosted,variational,achieving"
    assert len(lines) == 11
    payload = json.loads((tmp_path / "distance.json").read_text())
    assert payload["passed"] is True


def test_moyal_quick(tmp_path):
    code = run(["moyal", "--quick"], tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "moyal.json").read_text())
    assert payload["passed"] is True
    assert payload["theta"] == 0.5


def test_filtration_command(tmp_path):
    code = run(["filtration"], tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "filtration.json").read_text())
    assert payload["passed"] is True


def test_invalid_dimension_is_config_error(tmp_path, capsys):
    code = run(["verify", "--dimension", "5"], tmp_path)
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_config_errors_are_collected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -3, "living_room": True}))
    code = run(["verify", "--config", str(cfg)], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert "living_room" in err
    assert "seed" in err


def test_bad_u_expression_is_config_error(tmp_path, capsys):
    code = run(["verify", "--u", "1 + * t"], tmp_path)
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 12, "seed": 7}))
    code = run(["verify", "--config", str(cfg), "--seed", "11"], tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["config"]["points"] == 12
    assert payload["config"]["seed"] == 11


def test_unsteep_candidate_pool_is_config_error(tmp_path, capsys):
    code = run(["distance", "--pairs", "2", "--points", "12",
                "--candidates", "0.5*t"], tmp_path)
    assert code == 2
    assert "no steep candidates" in capsys.readouterr().err


def test_output_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_ENV, str(tmp_path))
    assert cli.main(["verify", "--points", "12"]) == 0
    assert (tmp_path / "verify.json").exists()


def test_dense_limit_guard(tmp_path, capsys):
    # a clamped <D>^2 needs a dense eigvalsh: 80^2 x 2 = 12800 > DENSE_LIMIT
    code = run(["verify", "--points", "80", "--boundary", "clamped"], tmp_path)
    assert code == 2
    assert "dense" in capsys.readouterr().err.lower()


def test_periodic_verify_is_held_to_the_momentum_budget(tmp_path, capsys):
    # a periodic suite does no dense work: 80^2 runs (32768000 bytes of
    # momentum blocks), 81^2 and 4-d 11^4 exceed MOMENTUM_BYTES_LIMIT
    assert run(["verify", "--points", "80"], tmp_path) == 0
    assert "FAIL" not in capsys.readouterr().out
    for argv in (["--points", "81"], ["--dimension", "4", "--points", "11"]):
        assert run(["verify", *argv], tmp_path) == 2
        captured = capsys.readouterr()
        assert "momentum" in captured.err and captured.out == ""
    errors = cli.validate_config(cli.RunConfig(points=81), "verify")
    assert len(errors) == 1 and "momentum" in errors[0]


@pytest.mark.parametrize("command, config", [
    ("verify", {"out": 5}),
    ("verify", {"box": float("inf")}),
    ("moyal", {"theta": float("nan")}),
    ("moyal", {"quick": "no"}),
    ("verify", {"u": "t-3"}),
    ("verify", {"u": "1/(t-3)"}),
    ("verify", {"u": "sqrt(t-3)"}),
    ("distance", {"pairs": True}),
    ("moyal", {"theta": True}),
    ("verify", {"box": True}),
    ("distance", {"dimension": 4, "points": 200}),
    ("distance", {"dimension": 3, "points": 40, "pairs": 1}),
    ("report", {"dimension": 3, "points": 6}),
    ("filtration", {"out": "cfg.json/x"}),
    ("verify", {"points": 4, "out": "cfg.json"}),
    ("distance", {"candidates": [1, "t"]}),
    ("verify", {"u": "(" * 250 + "1" + ")" * 250}),
    ("distance", {"candidates": ["+".join(["t"] * 1500)]}),
    ("verify", {"box": 1e-160}),
    ("verify", {"box": 1e200}),
], ids=["out-type", "box-inf", "theta-nan", "quick-type", "u-negative",
        "u-division-floor", "u-sqrt-negative", "pairs-bool", "theta-bool",
        "box-bool", "distance-sites", "distance-odd-dimension",
        "report-odd-dimension", "out-under-a-file", "out-is-a-file",
        "candidate-not-a-string", "u-nested-250", "candidate-sum-1500",
        "box-underflow", "box-overflow"])
def test_bad_config_fails_before_any_work(command, config, tmp_path,
                                          monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error:" in err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("box", [1e-160, 1e200],
                         ids=["box-underflow", "box-overflow"])
def test_box_must_give_finite_cell_weights(box):
    # h = box / 16: h^2 underflows to a subnormal with 1/h^2 = inf, or
    # overflows to inf; either would surface only after the suite ran
    errors = cli.validate_config(cli.RunConfig(box=box), "verify")
    assert len(errors) == 1 and "cell weight" in errors[0], errors
    for fine in (1e-3, 1e6):
        assert not cli.validate_config(cli.RunConfig(box=fine), "verify")


def _verify_checks(points, u="1", boundary="periodic"):
    checks = [c for n in (2, 3, 4, 6) for c in check_clifford(build_gamma(n)).checks]
    op = flat_operator(2, points, boundary=boundary, u=u)
    return checks + list(check_temporal_axioms(op, seed=42).checks)


def _report_checks():
    return (_verify_checks(12) + list(run_distance_suite(10, 2, 12, 42)[0])
            + list(run_moyal_suite(quick=True)[0])
            + list(run_filtration_suite(seed=42)[0])
            + list(equivalence_scan(500, 42, dimension=2).checks))


@pytest.mark.parametrize("argv, expected", [
    (["verify", "--points", "12"], lambda: _verify_checks(12)),
    (["verify", "--points", "12", "--boundary", "clamped", "--u", "1+0.1*t"],
     lambda: _verify_checks(12, u="1+0.1*t", boundary="clamped")),
    (["moyal", "--quick"], lambda: run_moyal_suite(quick=True)[0]),
    (["filtration"], lambda: run_filtration_suite(seed=42)[0]),
    (["distance", "--pairs", "10", "--points", "12"],
     lambda: run_distance_suite(10, 2, 12, 42)[0]),
    (["report", "--points", "12", "--pairs", "10"], _report_checks),
], ids=["verify", "verify-failing", "moyal-quick", "filtration", "distance",
        "report"])
def test_cli_prints_exactly_the_suite_checks(argv, expected, tmp_path, capsys):
    code = run(argv, tmp_path)
    out = capsys.readouterr().out
    checks = list(expected())
    assert out == "".join(cli._line(c) + "\n" for c in checks)
    passed = all(c.passed for c in checks)
    payload = json.loads((tmp_path / (argv[0] + ".json")).read_text())
    assert payload["checks"] == cli._plain(verdict(checks)["checks"])
    assert payload["passed"] is passed
    assert code == (cli.EXIT_OK if passed else cli.EXIT_CHECK_FAILED)


def test_candidate_with_nan_gradients_is_refused(tmp_path, capsys):
    assert run(["distance", "--candidates", "t+1e308*x"], tmp_path) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "no steep candidates" in err


def _cli_process(argv, tmp_path):
    # a fresh interpreter, whose stderr shows any warning as printed text
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "lorentzlab.cli", *argv,
                           "--out", str(tmp_path)], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


def test_overflowing_candidate_leaves_stderr_clean(tmp_path):
    alone = _cli_process(["distance", "--candidates", "t+1e308*x"], tmp_path)
    assert alone.returncode == 2
    assert alone.stderr.splitlines() == [
        "config error: no steep candidates: all 1 candidate(s) failed "
        "certification"]
    mixed = _cli_process(["distance", "--candidates", "t+1e308*x", "t"],
                         tmp_path)
    assert mixed.returncode == 0 and mixed.stderr == ""
    payload = json.loads((tmp_path / "distance.json").read_text(),
                         parse_constant=_refuse_constant)
    (record,) = payload["rejected"]
    assert record["candidate"] == "t+1e308*x"
    assert record["worst_margin"] is None     # a NaN margin, written as null


def _refuse_constant(name):
    raise ValueError("artifact holds %s, which is not JSON" % name)


def test_non_finite_floats_are_written_as_null(tmp_path):
    payload = {"nan": float("nan"), "inf": np.float64(np.inf),
               "stack": np.array([1.5, -np.inf]),
               "z": complex(np.nan, 2.0), "finite": np.float64(0.1)}
    assert cli._plain(payload) == {"nan": None, "inf": None,
                                   "stack": [1.5, None],
                                   "z": {"re": None, "im": 2.0},
                                   "finite": 0.1}
    cli.write_json(tmp_path / "a.json", payload)
    text = (tmp_path / "a.json").read_text()
    assert json.loads(text, parse_constant=_refuse_constant)["nan"] is None


def test_write_json_refuses_nan(tmp_path, monkeypatch):
    # behind _plain, json.dump itself refuses a NaN instead of writing one
    monkeypatch.setattr(cli, "_plain", lambda obj: obj)
    with pytest.raises(ValueError):
        cli.write_json(tmp_path / "a.json", {"raw": float("nan")})


def test_distance_candidates_are_certified_where_the_events_lie(tmp_path, capsys):
    # 2|t| is steep on t >= 0 only; the events are drawn from [-3, 3]^2
    assert run(["distance", "--candidates", "2*abs(t)"], tmp_path) == 2
    assert "no steep candidates" in capsys.readouterr().err
    assert run(["distance", "--candidates", "2*abs(t)", "t"], tmp_path) == 0
    assert "FAIL" not in capsys.readouterr().out
    rows = (tmp_path / "distance.csv").read_text().splitlines()[1:]
    assert rows and all(row.endswith(",t") for row in rows)
    payload = json.loads((tmp_path / "distance.json").read_text())
    (record,) = payload["rejected"]
    assert record["candidate"] == "2*abs(t)" and record["worst_margin"] < 0
