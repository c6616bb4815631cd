"""Command-line driver: verify / distance / moyal / filtration / report.

Configuration comes from an optional JSON file plus flag overrides; every
validation problem is collected and reported before exiting.  Exit codes:
0 = all checks passed, 1 = at least one check failed, 2 = bad configuration
or unparsable input.  Artifacts are deterministic: sorted JSON keys, LF line
endings, shortest round-trip float formatting, no timestamps; reruns with
the same configuration are byte-identical.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import clifford, dirac, distance, filtration, moyal, steepness
from .checks import verdict
from .expressions import (AXIS_NAMES, ExpressionError, parse_expression,
                          variables_used)
from .lattice import Lattice, ScalarField

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
    truncation: int = moyal.TRUNCATION_DEFAULT
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
    "boundary": (lambda v: v in ("periodic", "clamped"),
                 "'periodic' or 'clamped'"),
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
    for key, val in overrides.items():
        if val is not None:
            setattr(cfg, key, val)
    return cfg, errors


def _has_type(value, kind):
    """isinstance for a RunConfig field type: bool only for bool, int as float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


# commands that run the axiom suite (held to dirac.elliptic_size_error), and
# commands whose steepness certificates need the chirality matrix (even
# dimensions)
AXIOM_COMMANDS = ("verify", "report")
EVEN_COMMANDS = ("distance", "report")


def validate_config(cfg, command):
    errors = []
    valid = set()
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None and f.default is None:
            continue
        if not _has_type(value, f.type):
            errors.append("%s must be of type %s, got %r"
                          % (f.name, f.type.__name__, value))
            continue
        rule = VALUE_RULES.get(f.name)
        if rule is None or rule[0](value):
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
    if "candidates" in valid:
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
    if {"box", "points", "dimension", "boundary"} <= valid:
        # sites weigh h^d in every integral and <D>^2 scales as 1/h^2
        h = np.float64(_lattice(cfg).spacing(0))
        with np.errstate(all="ignore"):
            weight, inverse = h ** cfg.dimension, 1.0 / h ** 2
        if not (0.0 < weight < math.inf and inverse < math.inf):
            errors.append("box %r gives spacing h = %r, whose cell weight "
                          "h^%d = %r and 1/h^2 = %r must be finite and "
                          "non-zero" % (cfg.box, float(h), cfg.dimension,
                                        float(weight), float(inverse)))
    if command in EVEN_COMMANDS and "dimension" in valid and cfg.dimension % 2:
        errors.append("%s needs an even dimension (chirality), got %d"
                      % (command, cfg.dimension))
    axioms = command in AXIOM_COMMANDS
    if not errors and cfg.points ** cfg.dimension > dirac.SITE_LIMIT:
        errors.append("lattice too large: %d^%d sites > %d"
                      % (cfg.points, cfg.dimension, dirac.SITE_LIMIT))
    if axioms and not errors:
        error = dirac.elliptic_size_error(
            (cfg.points,) * cfg.dimension, cfg.boundary,
            clifford.build_gamma(cfg.dimension).matrix_size)
        if error:
            errors.append("%d^%d lattice: %s" % (cfg.points, cfg.dimension, error))
    if axioms and not errors:
        try:
            with np.errstate(all="ignore"):
                u = ScalarField.from_expression(_lattice(cfg), cfg.u).values
        except ExpressionError as exc:
            errors.append("u cannot be evaluated on the lattice: %s" % exc)
        else:
            if not np.all(np.isfinite(u) & (u > 0)):
                errors.append("u = %r must be positive and finite at every "
                              "site of the %d^%d lattice"
                              % (cfg.u, cfg.points, cfg.dimension))
    return errors


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


def _outdir(cfg):
    out = cfg.out or os.environ.get(OUTPUT_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _lattice(cfg):
    side = float(cfg.box) if cfg.box is not None else float(cfg.points)
    extents = tuple((0.0, side) for _ in range(cfg.dimension))
    return Lattice(extents, (cfg.points,) * cfg.dimension, cfg.boundary)


# ------------------------------------------------------------- subcommands
# Each returns (checks, payload) or (checks, payload, csv rows); the suites
# decide every verdict and main only renders and writes them.


def run_verify(cfg):
    reports = [clifford.check_clifford(clifford.build_gamma(n))
               for n in (2, 3, 4, 6)]
    op = dirac.flat_operator(cfg.dimension, cfg.points, _lattice(cfg).extents,
                             cfg.boundary, cfg.u)
    axioms = dirac.check_temporal_axioms(op, seed=cfg.seed)
    checks = [c for rep in reports + [axioms] for c in rep.checks]
    payload = {"clifford": {str(rep.dimension): rep.to_dict() for rep in reports},
               "axioms": asdict(axioms),
               "config": {"dimension": cfg.dimension, "points": cfg.points,
                          "boundary": cfg.boundary, "u": cfg.u,
                          "seed": cfg.seed},
               **verdict(checks)}
    return checks, payload


def run_distance(cfg):
    return distance.run_distance_suite(cfg.pairs, cfg.dimension, cfg.points,
                                       cfg.seed, cfg.candidates)


def write_distance_csv(path, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write("pair,dt,r,oracle,boosted,variational,achieving\n")
        for (i, dt, r, oracle, boosted, vari, ach) in rows:
            fh.write("%d,%r,%r,%r,%r,%r,%s\n"
                     % (i, float(dt), float(r), float(oracle),
                        float(boosted), float(vari), ach))


def run_moyal(cfg):
    return moyal.run_moyal_suite(theta=float(cfg.theta),
                                 truncation=cfg.truncation, quick=cfg.quick)


def run_filtration(cfg):
    return filtration.run_filtration_suite(seed=cfg.seed)


def run_report(cfg):
    verify_checks, verify_payload = run_verify(cfg)
    dist_checks, dist_payload, rows = run_distance(cfg)
    moyal_checks, moyal_payload = run_moyal(replace(cfg, quick=True))
    filt_checks, filt_payload = run_filtration(cfg)
    scan = steepness.equivalence_scan(500, cfg.seed, dimension=2)
    checks = [*verify_checks, *dist_checks, *moyal_checks, *filt_checks,
              *scan.checks]
    payload = {
        "verify": verify_payload,
        "distance": dist_payload,
        "moyal": moyal_payload,
        "filtration": filt_payload,
        "steepness_equivalence": scan.to_dict(),
        **verdict(checks),
    }
    return checks, payload, rows


RUNS = {"verify": run_verify, "distance": run_distance, "moyal": run_moyal,
        "filtration": run_filtration, "report": run_report}


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

    v = sub.add_parser("verify", parents=[common],
                       help="gamma algebra + temporal axiom suite")
    v.add_argument("--dimension", type=int)
    v.add_argument("--points", type=int)
    v.add_argument("--box", type=float)
    v.add_argument("--boundary", choices=("periodic", "clamped"))
    v.add_argument("--u", help="conformal factor u(t), expression in t")

    d = sub.add_parser("distance", parents=[common],
                       help="oracle / boosted / variational distances")
    d.add_argument("--dimension", type=int)
    d.add_argument("--points", type=int)
    d.add_argument("--pairs", type=int)
    d.add_argument("--candidates", nargs="+",
                   help="steep candidate expressions in t,x,y,z")

    m = sub.add_parser("moyal", parents=[common],
                       help="star product engine checks")
    m.add_argument("--theta", type=float)
    m.add_argument("--truncation", type=int)
    # default None, not False, so a config file's "quick" is not overridden
    m.add_argument("--quick", action="store_true", default=None)

    f = sub.add_parser("filtration", parents=[common],
                       help="filtered algebra and state extension")

    r = sub.add_parser("report", parents=[common],
                       help="run everything, write a single report")
    r.add_argument("--dimension", type=int)
    r.add_argument("--points", type=int)
    r.add_argument("--pairs", type=int)
    r.add_argument("--theta", type=float)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k in CONFIG_KEYS and v is not None}
    cfg, errors = load_config(getattr(args, "config", None), overrides)
    errors += validate_config(cfg, args.command)
    if errors:
        for err in errors:
            print("config error: %s" % err, file=sys.stderr)
        return EXIT_CONFIG

    try:
        out = _outdir(cfg)
    except OSError as exc:
        print("config error: cannot create output directory: %s" % exc,
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        checks, payload, *rows = RUNS[args.command](cfg)
    except (ExpressionError, ValueError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    for check in checks:
        print(_line(check))
    write_json(os.path.join(out, args.command + ".json"), payload)
    if rows:
        write_distance_csv(os.path.join(out, "distance.csv"), rows[0])
    return EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
