"""Command-line driver: verify / distance / moyal / filtration / report.

Configuration comes from an optional JSON file plus flag overrides; every
field problem is collected and reported before exiting, and only a config
with none is handed to the command's suites, each of which plans its run:
it builds what the run consumes, or refuses with the library's reason.
Exit codes: 0 = all checks passed, 1 = at least one check failed, 2 = bad
configuration or unparsable input.  The output directory is made only once
every run has returned.  Artifacts are deterministic: sorted JSON keys, LF
line endings, shortest round-trip float formatting, no timestamps; reruns
with the same configuration are byte-identical.
"""

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from . import clifford, dirac, distance, filtration, moyal, steepness
from .checks import verdict
from .expressions import (AXIS_NAMES, ExpressionError, parse_expression,
                          variables_used)
from .lattice import BOUNDARIES

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
OUTPUT_ENV = "LORENTZLAB_OUT"


@dataclass
class RunConfig:
    seed: int = 42
    dimension: int = 2
    points: int = 16
    box: float = None            # side length; default = points (unit spacing)
    boundary: str = "periodic"
    u: str = "1"
    theta: float = moyal.THETA_DEFAULT
    truncation: int = None       # default = moyal.suite_truncation's
    pairs: int = 24
    candidates: list = None
    out: str = None
    quick: bool = False


CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))

# value rules for keys of the right type: (predicate, what the key must be)
VALUE_RULES = {
    "seed": (lambda v: v >= 0, "non-negative"),
    "dimension": (lambda v: v in (2, 3, 4), "2, 3, or 4"),
    "points": (lambda v: v >= 3, ">= 3"),
    "box": (lambda v: math.isfinite(v) and v > 0, "positive and finite"),
    "boundary": (lambda v: v in BOUNDARIES,
                 " or ".join(map(repr, BOUNDARIES))),
    "theta": (lambda v: math.isfinite(v) and v > 0, "positive and finite"),
    "truncation": (lambda v: 2 <= v <= 32, "in [2, 32]"),
    "pairs": (lambda v: 1 <= v <= 10000, "in [1, 10000]"),
    "candidates": (lambda v: len(v) > 0 and all(isinstance(c, str) for c in v),
                   "a non-empty list of expression strings"),
}


def load_config(path, overrides):
    """JSON file + CLI overrides; returns (config, error list)."""
    errors = []
    cfg = RunConfig()
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            return cfg, ["cannot read config file: %s" % exc]
        except json.JSONDecodeError as exc:
            return cfg, ["config file is not valid JSON: %s" % exc]
        if not isinstance(data, dict):
            return cfg, ["config file must contain a JSON object"]
        for key, val in data.items():
            if key not in CONFIG_KEYS:
                errors.append("unknown config key %r (allowed: %s)"
                              % (key, ", ".join(CONFIG_KEYS)))
            else:
                setattr(cfg, key, val)
    overrides = {key: val for key, val in overrides.items() if val is not None}
    return replace(cfg, **overrides), errors


def _has_type(value, kind):
    """isinstance for a RunConfig field type: bool only for bool, int as float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def validate_config(cfg, command):
    """Every field problem of cfg, else the first refusal of the command's
    plans, run in suite order once its settings are applied (a report's
    suites share their lattice fields, so a second refusal would repeat the
    first); returns (errors, each suite's planned run by name)."""
    errors = []
    valid = set()
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        unset = value is None and f.default is None     # the suite's default
        if not (unset or _has_type(value, f.type)):
            errors.append("%s must be of type %s, got %r"
                          % (f.name, f.type.__name__, value))
            continue
        rule = VALUE_RULES.get(f.name)
        if unset or rule is None or rule[0](value):
            valid.add(f.name)
        else:
            errors.append("%s must be %s, got %r" % (f.name, rule[1], value))
    if "u" in valid:
        try:
            extra = variables_used(parse_expression(cfg.u)) - {"t"}
            if extra:
                errors.append("u must depend on t only, found %s"
                              % sorted(extra))
        except ExpressionError as exc:
            errors.append("u does not parse: %s" % exc)
    if "candidates" in valid and cfg.candidates is not None:
        allowed = set(AXIS_NAMES[: cfg.dimension] if "dimension" in valid
                      else AXIS_NAMES)
        for cand in cfg.candidates:
            try:
                extra = variables_used(parse_expression(cand)) - allowed
                if extra:
                    errors.append("candidate %r uses variables %s outside "
                                  "axes %s" % (cand, sorted(extra),
                                               sorted(allowed)))
            except ExpressionError as exc:
                errors.append("candidate %r does not parse: %s" % (cand, exc))
    if errors:
        return errors, {}
    suites, _, _, settings = COMMANDS[command]
    cfg = replace(cfg, **settings)
    try:
        return [], {name: SUITES[name](cfg) for name in suites}
    except ValueError as exc:
        return [str(exc)], {}


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json stays deterministic.

    A NaN or infinite float becomes None (JSON null): NaN and Infinity are
    not JSON, and strict parsers refuse them.
    """
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return {"re": _plain(obj.real), "im": _plain(obj.imag)}
    return obj


def write_json(path, obj):
    with open(path, "w", newline="\n") as fh:
        json.dump(_plain(obj), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _line(check):
    """The PASS/FAIL line printed for one Check."""
    return "%s %-40s %11.4g %-2s %.4g" % ("PASS" if check.passed else "FAIL",
                                          check.name, check.value,
                                          check.relation, check.bound)


# ------------------------------------------------------------------ suites
# A plan(cfg) builds what its suite's run consumes, or raises ValueError
# with the library's reason; the run it returns takes no argument, returns
# (checks, payload) or (checks, payload, csv rows) and decides every verdict.


def plan_verify(cfg):
    # D, its lapse sampled with warnings off, and the charge of its <D>^2
    extents = None if cfg.box is None else ((0.0, float(cfg.box)),) * cfg.dimension
    try:
        with np.errstate(all="ignore"):
            D = dirac.flat_operator(cfg.dimension, cfg.points, extents,
                                    cfg.boundary, cfg.u)
    except ExpressionError as exc:
        raise ValueError("u cannot be evaluated on the lattice: %s" % exc) from exc
    except ValueError as exc:
        raise ValueError("%d^%d lattice, u = %r: %s"
                         % (cfg.points, cfg.dimension, cfg.u, exc)) from exc
    error = dirac.elliptic_size_error(D)
    if error:
        raise ValueError("%d^%d lattice: %s" % (cfg.points, cfg.dimension, error))

    def run():
        gammas = [clifford.check_clifford(clifford.build_gamma(n))
                  for n in (2, 3, 4, 6)]
        axiom_checks, axioms = dirac.check_temporal_axioms(D, seed=cfg.seed)
        checks = [c for gamma_checks, _ in gammas for c in gamma_checks] + axiom_checks
        payload = {"clifford": {str(gamma["dimension"]): gamma for _, gamma in gammas},
                   "axioms": axioms,
                   "config": {"dimension": cfg.dimension, "points": cfg.points,
                              "boundary": cfg.boundary, "u": cfg.u,
                              "seed": cfg.seed},
                   **verdict(checks)}
        return checks, payload
    return run


def plan_distance(cfg):
    # the certification operator, whose rep must have a grading
    op = distance.certification_operator(cfg.dimension, cfg.points)
    steepness.require_grading(op.rep)
    return lambda: distance.run_distance_suite(cfg.pairs, op, cfg.seed,
                                               cfg.candidates)


def plan_moyal(cfg):
    # the truncation the suite runs, whose Landau basis must be finite
    error = moyal.basis_overflow_error(
        moyal.suite_truncation(cfg.truncation, cfg.quick), float(cfg.theta))
    if error:
        raise ValueError(error)
    return lambda: moyal.run_moyal_suite(float(cfg.theta), cfg.truncation,
                                         cfg.quick)


def write_distance_csv(path, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write("pair,dt,r,oracle,boosted,variational,achieving\n")
        for (i, dt, r, oracle, boosted, vari, ach) in rows:
            fh.write("%d,%r,%r,%r,%r,%r,%s\n"
                     % (i, float(dt), float(r), float(oracle),
                        float(boosted), float(vari), ach))


# name (a report's section): plan
SUITES = {
    "verify": plan_verify,
    "distance": plan_distance,
    "moyal": plan_moyal,
    "filtration": lambda cfg: lambda: filtration.run_filtration_suite(
        seed=cfg.seed),
    "steepness_equivalence": lambda cfg: lambda: steepness.equivalence_scan(
        500, cfg.seed, dimension=cfg.dimension),
}

# name: (suites run in order, help, flags in order, settings); a flag
# converts its value to its RunConfig field's type unless FLAG_OPTIONS gives
# its argparse options, and settings fix fields once the config is validated
COMMANDS = {
    "verify": (("verify",), "gamma algebra + temporal axiom suite",
               ("dimension", "points", "box", "boundary", "u"), {}),
    "distance": (("distance",), "oracle / boosted / variational distances",
                 ("dimension", "points", "pairs", "candidates"), {}),
    "moyal": (("moyal",), "star product engine checks",
              ("theta", "truncation", "quick"), {}),
    "filtration": (("filtration",), "filtered algebra and state extension",
                   (), {}),
    # the quick Moyal suite, whatever the config's quick and truncation
    "report": (tuple(SUITES), "run everything, write a single report",
               ("dimension", "points", "pairs", "theta"),
               {"quick": True, "truncation": None}),
}
FLAG_OPTIONS = {
    "boundary": {"choices": BOUNDARIES},
    "u": {"help": "conformal factor u(t), expression in t"},
    "candidates": {"nargs": "+",
                   "help": "steep candidate expressions in t,x,y,z"},
    # default None, not False, so a config file's "quick" is not overridden
    "quick": {"action": "store_true", "default": None},
}


# -------------------------------------------------------------------- main


def build_parser():
    # global flags accepted both before and after the subcommand; SUPPRESS
    # keeps the subparser from clobbering values parsed at the root
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON configuration file")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="output directory (default $%s or '.')"
                        % OUTPUT_ENV)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="random seed")

    p = argparse.ArgumentParser(
        prog="lorentzlab",
        parents=[common],
        description="Numerical checks for temporal Lorentzian spectral "
                    "geometry: Clifford algebra, lattice Dirac axioms, "
                    "steep functions, causal distances, star products, and "
                    "filtered algebras.")
    sub = p.add_subparsers(dest="command", required=True)
    types = {f.name: f.type for f in fields(RunConfig)}
    for name, (_, help_text, flags, _) in COMMANDS.items():
        command = sub.add_parser(name, parents=[common], help=help_text)
        for flag in flags:
            command.add_argument("--" + flag, **FLAG_OPTIONS.get(
                flag, {"type": types[flag]}))
    return p


def main(argv=None):
    """Run one command; the warnings it raises go to stderr as one
    `warning: <message>` line each, with no library path or source line."""
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        try:
            return _run(args)
        finally:
            for w in caught:
                print("warning: %s" % w.message, file=sys.stderr)


def _run(args):
    overrides = {k: v for k, v in vars(args).items() if k in CONFIG_KEYS}
    cfg, errors = load_config(getattr(args, "config", None), overrides)
    field_errors, runs = validate_config(cfg, args.command)
    errors += field_errors
    if errors:
        for err in errors:
            print("config error: %s" % err, file=sys.stderr)
        return EXIT_CONFIG

    checks, sections, rows = [], {}, []
    try:
        for name, run in runs.items():
            suite_checks, sections[name], *suite_rows = run()
            checks += suite_checks
            rows += suite_rows
    except ValueError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    out = cfg.out or os.environ.get(OUTPUT_ENV) or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        print("config error: cannot create output directory: %s" % exc,
              file=sys.stderr)
        return EXIT_CONFIG
    # one suite's payload is its command's artifact; several are sections
    payload = (sections[name] if len(sections) == 1
               else {**sections, **verdict(checks)})
    for check in checks:
        print(_line(check))
    write_json(os.path.join(out, args.command + ".json"), payload)
    if rows:
        write_distance_csv(os.path.join(out, "distance.csv"), rows[0])
    return EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
