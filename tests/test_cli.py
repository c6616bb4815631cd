import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from lorentzlab import cli, dirac, moyal
from lorentzlab.checks import verdict
from lorentzlab.clifford import build_gamma, check_clifford
from lorentzlab.dirac import check_temporal_axioms, flat_operator
from lorentzlab.distance import run_distance_suite
from lorentzlab.filtration import run_filtration_suite
from lorentzlab.lattice import BOUNDARIES, Lattice
from lorentzlab.moyal import run_moyal_suite
from lorentzlab.steepness import equivalence_scan
from oracles import clifford_residuals, constant_lapse_spectrum


def run(argv, tmp_path, extra=()):
    return cli.main(list(argv) + ["--out", str(tmp_path)] + list(extra))


def test_verify_artifact_clifford_sections(tmp_path):
    # the five keys of each gamma algebra's section, its maxima np.max over
    # the residuals rebuilt from their definitions
    assert run(["verify"], tmp_path) == 0
    sections = json.loads((tmp_path / "verify.json").read_text())["clifford"]
    assert sorted(sections) == ["2", "3", "4", "6"]
    for key, section in sections.items():
        anti, herm = clifford_residuals(build_gamma(int(key)))
        assert section == {
            "dimension": int(key),
            "max_anticommutator_residual": float(np.max(list(anti.values()))),
            "max_hermiticity_residual": float(np.max(herm)),
            "max_residual": float(np.max([*anti.values(), *herm])),
            "passed": True,
        }


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


def test_boundaries_are_named_once(tmp_path, capsys):
    # Lattice, the config rule and the --boundary flag accept exactly
    # lattice.BOUNDARIES, and refuse anything else in their own words
    assert BOUNDARIES == ("periodic", "clamped")
    rule, what = cli.VALUE_RULES["boundary"]
    verify = next(a for a in cli.build_parser()._actions
                  if a.dest == "command").choices["verify"]
    flag = next(a for a in verify._actions if a.dest == "boundary")
    assert tuple(flag.choices) == BOUNDARIES
    for boundary in BOUNDARIES:
        assert Lattice(((0.0, 1.0),), (4,), boundary).boundary == boundary
        assert rule(boundary)
    with pytest.raises(ValueError) as refused:
        Lattice(((0.0, 1.0),), (4,), "open")
    assert str(refused.value) == ("boundary must be 'periodic' or 'clamped', "
                                  "got 'open'")
    assert not rule("open")
    errors = cli.validate_config(cli.RunConfig(boundary="open"), "verify")
    assert errors == ["boundary must be 'periodic' or 'clamped', got 'open'"]
    with pytest.raises(SystemExit):
        run(["verify", "--boundary", "open"], tmp_path)
    assert "invalid choice: 'open'" in capsys.readouterr().err


def test_each_flag_converts_to_its_run_config_field_type():
    # a subcommand's flags set RunConfig fields of the same name and read
    # their type from it, except the four whose argparse options say more
    types = {f.name: f.type for f in fields(cli.RunConfig)}
    root = cli.build_parser()
    shared = {a.dest for a in root._actions}       # help, --config/--out/--seed
    commands = next(a for a in root._actions if a.dest == "command").choices
    declared = {name: [a.dest for a in command._actions
                       if a.dest not in shared]
                for name, command in commands.items()}
    assert declared == {
        "verify": ["dimension", "points", "box", "boundary", "u"],
        "distance": ["dimension", "points", "pairs", "candidates"],
        "moyal": ["theta", "truncation", "quick"],
        "filtration": [],
        "report": ["dimension", "points", "pairs", "theta"],
    }
    for command in commands.values():
        for flag in command._actions:
            if flag.dest in shared:
                continue
            assert flag.dest in types
            if flag.dest == "quick":
                assert isinstance(flag, argparse._StoreTrueAction)
                assert flag.default is None
                continue
            assert flag.type is (None if flag.dest in ("boundary", "u",
                                                       "candidates")
                                 else types[flag.dest])
            assert flag.choices == (BOUNDARIES if flag.dest == "boundary"
                                    else None)


@pytest.mark.parametrize("quick", [[], ["--quick"]], ids=["full", "quick"])
def test_too_large_theta_is_refused_before_the_delta_check(quick, tmp_path,
                                                          capsys,
                                                          monkeypatch):
    # the cross-engine basis outgrows the box first, so its refusal comes
    # before any matrix basis delta algebra work, any PASS line or artifact
    calls = []
    monkeypatch.setattr(moyal, "delta_algebra_check",
                        lambda *args, **kwargs: calls.append(kwargs))
    assert run(["moyal", "--theta", "5", *quick], tmp_path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "config error: transformed factor does not decay inside the box "
        "[-7, 7) x [-7, 7) (boundary fraction 5.988e-01)"]
    assert list(tmp_path.iterdir()) == []
    assert calls == []


@pytest.mark.parametrize("argv", [["verify", "--points", "4"],
                                  ["verify", "--dimension", "5"]])
def test_main_validates_once_through_the_module_attribute(argv, tmp_path,
                                                          monkeypatch):
    # the benchmark times set-up by replacing cli.validate_config, so main
    # must look it up on the module, once per run, refused or not
    calls = []
    validate = cli.validate_config

    def counted(*args, **kwargs):
        calls.append(args[1])
        return validate(*args, **kwargs)
    monkeypatch.setattr(cli, "validate_config", counted)
    run(argv, tmp_path)
    assert calls == ["verify"]


def test_output_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_ENV, str(tmp_path))
    assert cli.main(["verify", "--points", "12"]) == 0
    assert (tmp_path / "verify.json").exists()


def test_dense_limit_guard(tmp_path, capsys):
    # a clamped <D>^2 needs a dense eigvalsh: 80^2 x 2 = 12800 > DENSE_LIMIT
    code = run(["verify", "--points", "80", "--boundary", "clamped"], tmp_path)
    assert code == 2
    assert "dense" in capsys.readouterr().err.lower()


def test_periodic_verify_is_held_to_the_momentum_budget(tmp_path, capsys,
                                                        monkeypatch):
    # a periodic suite does no dense work and holds one chunk of momentum
    # blocks at a time: 81^2 and 4-d 11^4, whose blocks total more than
    # MOMENTUM_BYTES_LIMIT, run.  No cubic lattice within SITE_LIMIT has a
    # block too large alone, so the refusal is shown under a limit one
    # block of 81^2 under a lapse u(t) overfills: before any work, with
    # nothing on stdout
    for argv in (["--points", "81"], ["--dimension", "4", "--points", "11"]):
        assert run(["verify", *argv], tmp_path) == 0
        assert "FAIL" not in capsys.readouterr().out
    monkeypatch.setattr(dirac, "MOMENTUM_BYTES_LIMIT",
                        dirac.momentum_block_bytes(81, 2) - 1)
    assert run(["verify", "--points", "81", "--u", "2+sin(t)"], tmp_path) == 2
    captured = capsys.readouterr()
    assert "momentum block" in captured.err and captured.out == ""
    errors = cli.validate_config(cli.RunConfig(points=81, u="2+sin(t)"), "verify")
    assert len(errors) == 1 and "momentum block" in errors[0]


def test_validation_charges_the_blocks_of_the_lapse_it_is_given(monkeypatch):
    # under the limit above, a constant lapse waves every axis and its 2 x 2
    # blocks pass, while a lapse u(t) keeps the (N_t s)^2 blocks
    limit = dirac.momentum_block_bytes(81, 2) - 1
    monkeypatch.setattr(dirac, "MOMENTUM_BYTES_LIMIT", limit)
    assert cli.validate_config(cli.RunConfig(points=81), "verify") == []
    assert cli.validate_config(cli.RunConfig(points=81, u="2+sin(t)"),
                               "verify") == [
        "81^2 lattice: one <D>^2 momentum block would need about %d bytes "
        "of working set; limit is %d (use a coarser lattice)"
        % (3 * dirac.momentum_block_bytes(81, 2), limit)]


def test_verify_runs_the_operator_validation_built(tmp_path, monkeypatch):
    cli._operator.cache_clear()
    built, judged, ran = [], [], []
    init, validate, suite = (dirac.DiracOperator.__init__, cli.validate_config,
                             dirac.check_temporal_axioms)

    def counted_init(self, *args):
        init(self, *args)
        built.append(self)

    def counted_validate(*args):
        errors = validate(*args)
        judged.extend(built)
        return errors

    def counted_suite(D, **kwargs):
        ran.append(D)
        return suite(D, **kwargs)
    monkeypatch.setattr(dirac.DiracOperator, "__init__", counted_init)
    monkeypatch.setattr(cli, "validate_config", counted_validate)
    monkeypatch.setattr(dirac, "check_temporal_axioms", counted_suite)
    assert run(["verify"], tmp_path) == 0
    assert len(built) == 1 and judged == built and ran == built


def test_validation_refuses_what_the_suite_refuses(monkeypatch):
    # under lowered limits, on both sides of each: the CLI's refusal is the
    # suite's own reason, and a lattice it admits runs.  DENSE_LIMIT stays
    # above ORACLE_LIMIT, as shipped: the suite's probe-built D up to
    # ORACLE_LIMIT is held to DENSE_LIMIT too
    monkeypatch.setattr(dirac, "DENSE_LIMIT", 600)
    monkeypatch.setattr(dirac, "MOMENTUM_BYTES_LIMIT",
                        3 * dirac.momentum_block_bytes(6, 2))
    for dim, points, boundary, u in [
            (2, 6, "periodic", "1"), (2, 40, "periodic", "1"),
            (2, 6, "periodic", "2+sin(t)"), (2, 7, "periodic", "2+sin(t)"),
            (2, 17, "clamped", "1"), (2, 18, "clamped", "1"),
            (3, 5, "periodic", "1+0.1*t"), (4, 3, "periodic", "2+sin(t)"),
            (4, 4, "periodic", "2+sin(t)"), (4, 3, "clamped", "1"),
            (4, 4, "clamped", "1+0.1*t")]:
        cfg = cli.RunConfig(dimension=dim, points=points, boundary=boundary, u=u)
        try:
            check_temporal_axioms(flat_operator(dim, points, boundary=boundary, u=u))
            want = []
        except ValueError as exc:
            want = ["%d^%d lattice: %s" % (points, dim, exc)]
        assert cli.validate_config(cfg, "verify") == want, cfg


def test_a_bad_lapse_is_named_before_the_lattice_size():
    # the lapse is judged on the operator the run would build, and only that
    # operator's blocks are charged
    cfg = cli.RunConfig(points=80, boundary="clamped", u="t-3")
    assert cli.validate_config(cfg, "verify") == [
        "u = 't-3' must be positive and finite at every site of the 80^2 "
        "lattice, and 1/(h^2 min(u)^2) finite"]


@pytest.fixture(scope="module",
                params=[(2, 16, 1), (4, 5, 1), (4, 16, 1), (2, 16, 2), (4, 5, 2)],
                ids=["2d-16", "4d-5", "4d-16", "2d-16-u2", "4d-5-u2"])
def verified(request, tmp_path_factory):
    """`verify` on one periodic lattice with a constant lapse u, run once for
    the module.

    Returns (dimension, points, u, exit code, stdout, payload, spectra),
    where spectra holds every eigenvalue the <D>^2 check computed, one row
    per momentum block, recorded from its eigvalsh calls.
    """
    dim, points, u = request.param
    out = tmp_path_factory.mktemp("verify")
    spectra = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a):
        values = eigvalsh(a)
        spectra.append(values)
        return values
    text = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(text):
        mp.setattr(np.linalg, "eigvalsh", recorded)
        code = cli.main(["verify", "--dimension", str(dim), "--points",
                         str(points), "--u", str(u), "--out", str(out)])
    payload = json.loads((out / "verify.json").read_text())
    return (dim, points, u, code, text.getvalue(), payload,
            np.concatenate(spectra))


def test_periodic_4d_verify_runs_up_to_the_site_limit(verified):
    dim, points, _, code, out, payload, _ = verified
    assert code == 0 and payload["passed"] is True
    assert "FAIL" not in out
    assert len(out.splitlines()) == len(payload["checks"])
    assert payload["config"]["points"] == points


def test_momentum_block_spectra_match_the_closed_form(verified):
    # every eigenvalue of every block the suite diagonalised, above
    # ORACLE_LIMIT too, against the closed form (sum_mu sin^2(2 pi n/N)/h^2
    # for u = 1): a constant lapse gives one s x s block per space-time
    # momentum, in row-major order over the axes
    dim, points, u, _, _, payload, spectra = verified
    want = constant_lapse_spectrum((points,) * dim, (1.0,) * dim,
                                   build_gamma(dim).matrix_size, u)
    assert spectra.shape == want.shape
    assert np.max(np.abs(spectra - want)) <= 1e-12 * np.max(want)
    assert payload["axioms"]["elliptic_min_eigenvalue"] == spectra.min()


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
    ("verify", {"u": "1e-160"}),
    ("moyal", {"theta": 1e-20}),
    ("report", {"theta": 1e-100}),
    ("verify", {"u": "2+0^-1"}),
    ("verify", {"u": "1+10^400"}),
], ids=["out-type", "box-inf", "theta-nan", "quick-type", "u-negative",
        "u-division-floor", "u-sqrt-negative", "pairs-bool", "theta-bool",
        "box-bool", "distance-sites", "distance-odd-dimension",
        "report-odd-dimension", "out-under-a-file", "out-is-a-file",
        "candidate-not-a-string", "u-nested-250", "candidate-sum-1500",
        "box-underflow", "box-overflow", "u-underflow", "basis-overflow",
        "report-basis-overflow", "u-zero-to-negative-power",
        "u-constant-overflow"])
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
    if config.get("dimension") == 3:
        assert err == ("config error: %s needs an even dimension (grading), "
                       "got 3\n" % command)


@pytest.mark.parametrize("box", [1e-160, 1e200],
                         ids=["box-underflow", "box-overflow"])
def test_box_must_give_finite_cell_weights(box):
    # h = box / 16: h^2 underflows to a subnormal with 1/h^2 = inf, or
    # overflows to inf; either would surface only after the suite ran
    errors = cli.validate_config(cli.RunConfig(box=box), "verify")
    assert len(errors) == 1 and "cell weight" in errors[0], errors
    for fine in (1e-3, 1e6):
        assert not cli.validate_config(cli.RunConfig(box=fine), "verify")


@pytest.mark.parametrize("command, config, refused", [
    ("moyal", {"theta": 1e-20}, True),
    ("moyal", {"theta": 1e-20, "quick": True}, False),
    ("moyal", {"theta": 1e-15}, False),
    ("moyal", {"theta": 1e-12, "truncation": 32}, True),
    ("moyal", {"theta": 0.1, "truncation": 32}, False),
    ("report", {"theta": 1e-20, "truncation": 32}, False),
    ("report", {"theta": 1e-100}, True),
    ("verify", {"theta": 1e-100}, False),
    ("moyal", {"theta": 1e-20, "quick": True, "truncation": 8}, False),
])
def test_theta_must_keep_the_landau_basis_finite(command, config, refused):
    # at the corner of the delta grid the basis is inf * 0 for a small
    # theta and many orders; moyal runs truncation orders (8 with --quick,
    # which also accepts --truncation 8), report 8, and verify none
    errors = cli.validate_config(cli.RunConfig(**config), command)
    if refused:
        assert len(errors) == 1 and "Landau basis" in errors[0], errors
    else:
        assert errors == []


def test_quick_truncation_is_the_one_the_guard_checks(monkeypatch):
    # moyal --quick and report run the quick suite: the overflow guard must
    # hold the truncation that suite runs
    monkeypatch.setattr(moyal, "QUICK_TRUNCATION", 6)
    guarded = []
    monkeypatch.setattr(moyal, "basis_overflow_error",
                        lambda n, theta: guarded.append(n))
    assert cli.validate_config(cli.RunConfig(quick=True), "moyal") == []
    assert cli.validate_config(cli.RunConfig(), "report") == []
    assert guarded == [6, 6]
    _, payload = run_moyal_suite(quick=True)
    assert payload["delta_algebra"]["truncation"] == 6


@pytest.mark.parametrize("argv, config", [
    (["--quick", "--truncation", "24"], {}),
    ([], {"quick": True, "truncation": 32, "theta": 1e-12}),
], ids=["flags", "config-file"])
def test_quick_refuses_a_truncation_it_would_drop(argv, config, tmp_path,
                                                  monkeypatch, capsys):
    # --quick runs QUICK_TRUNCATION, so any other truncation is refused
    # before any work, naming both keys, rather than silently dropped
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["moyal", *argv, "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    truncation = config.get("truncation", 24)
    assert out == ""
    assert err == ("config error: truncation %d cannot run with quick, which "
                   "runs truncation %d\n" % (truncation, moyal.QUICK_TRUNCATION))
    assert list(tmp_path.iterdir()) == [path]


def test_report_runs_the_steepness_scan_at_its_dimension(tmp_path):
    # every suite of a report reads the report's dimension
    argv = ["report", "--dimension", "4", "--points", "5", "--pairs", "4"]
    assert run(argv, tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verify"]["config"]["dimension"] == 4
    _, scan = equivalence_scan(500, 42, dimension=4)
    assert report["steepness_equivalence"] == cli._plain(scan)
    assert scan["dimension"] == 4 and scan["passed"] is True


def test_each_report_section_is_its_commands_artifact(tmp_path):
    # report is the union of the commands' suites: each section equals the
    # artifact its own command writes, and the distance rows are the same
    runs = {"report": ["report", "--points", "12", "--pairs", "10"],
            "verify": ["verify", "--points", "12"],
            "distance": ["distance", "--points", "12", "--pairs", "10"],
            "moyal": ["moyal", "--quick"],
            "filtration": ["filtration"]}
    for name, argv in runs.items():
        (tmp_path / name).mkdir()
        assert run(argv, tmp_path / name) == 0
    report = json.loads((tmp_path / "report" / "report.json").read_text())
    for name in ("verify", "distance", "moyal", "filtration"):
        artifact = tmp_path / name / (name + ".json")
        assert report[name] == json.loads(artifact.read_text()), name
    assert ((tmp_path / "report" / "distance.csv").read_bytes()
            == (tmp_path / "distance" / "distance.csv").read_bytes())


def test_readme_synopsis_lists_each_commands_flags():
    # the `lorentzlab <command> [...]` block under "## Command line" lists
    # every command, each with exactly its flags, in order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    synopsis = {}
    for line in block.strip().splitlines():
        prog, command, *rest = line.split()
        assert prog == "lorentzlab", line
        synopsis[command] = re.findall(r"\[--([a-z]+)", " ".join(rest))
    assert synopsis == {name: list(flags)
                        for name, (_, _, flags, _) in cli.COMMANDS.items()}


def test_u_must_keep_the_elliptic_time_part_finite():
    # the time part of <D>^2 scales as 1/(h^2 u^2): at h = 1, u = 1e-155
    # squares to a subnormal whose reciprocal overflows, u = 1e-154 does not
    errors = cli.validate_config(cli.RunConfig(u="1e-155"), "verify")
    assert len(errors) == 1 and "min(u)^2" in errors[0], errors
    assert not cli.validate_config(cli.RunConfig(u="1e-154"), "verify")


def _verify_checks(points, u="1", boundary="periodic"):
    checks = [c for n in (2, 3, 4, 6) for c in check_clifford(build_gamma(n))[0]]
    op = flat_operator(2, points, boundary=boundary, u=u)
    return checks + list(check_temporal_axioms(op, seed=42)[0])


def _report_checks():
    return (_verify_checks(12) + list(run_distance_suite(10, 2, 12, 42)[0])
            + list(run_moyal_suite(quick=True)[0])
            + list(run_filtration_suite(seed=42)[0])
            + list(equivalence_scan(500, 42, dimension=2)[0]))


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


def test_zero_to_a_negative_power_is_a_division_by_zero(tmp_path):
    # x = -3 at site 0 of the candidates' box: both pools are refused alike,
    # before any check line and with no numpy warning
    for cand in ("t+0*(x+3)^-1", "t+0/(x+3)"):
        done = _cli_process(["distance", "--candidates", cand, "t"], tmp_path)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.splitlines() == [
            "config error: candidate %r cannot be evaluated on the "
            "certification lattice: division by zero at site 0 (0, 0)" % cand]
    assert list(tmp_path.iterdir()) == []


def test_a_candidate_that_cannot_be_evaluated_is_named(tmp_path, capsys):
    # sqrt(t) parses, but t = -3 at site 0 of the certification box: the
    # refusal names it among the candidates, before any check line
    argv = ["distance", "--candidates", "t", "sqrt(t)", "2*t"]
    assert run(argv, tmp_path) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "config error: candidate 'sqrt(t)' cannot be evaluated on the "
        "certification lattice: sqrt of negative value at site 0 (0, 0)"]
    assert list(tmp_path.iterdir()) == []


def test_lapse_is_sampled_once_with_warnings_off(tmp_path):
    # 1e308*10 overflows to inf on the way to u = 1: validation judges the
    # field under its silent policy, and verify builds D from that field
    done = _cli_process(["verify", "--u", "1/(1e308*10)+1"], tmp_path)
    assert (done.returncode, done.stderr) == (0, "")


def test_warnings_reach_stderr_as_one_line_each(tmp_path):
    # the twisted engine's Nyquist warnings, without library path or source
    # line, in the order the cross-engine check raises them
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        moyal.cross_engine_check(theta=0.25)
    assert len(caught) == 5
    done = _cli_process(["moyal", "--theta", "0.25", "--quick"], tmp_path)
    assert done.returncode == 1
    assert done.stderr.splitlines() == ["warning: %s" % w.message
                                        for w in caught]
    payload = json.loads((tmp_path / "moyal.json").read_text())
    assert payload["cross_engine"]["twisted_tail_warnings"] == 5


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
