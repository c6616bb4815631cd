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
from dataclasses import dataclass, fields

import numpy as np

from . import clifford, dirac, distance, filtration, moyal, steepness
from .expressions import ExpressionError, parse_expression, variables_used
from .lattice import AXIS_NAMES, Lattice, ScalarField

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
OUTPUT_ENV = "LORENTZLAB_OUT"

BOOSTED_TOL = 1e-6
VARIATIONAL_FLOOR = -1e-9


@dataclass
class RunConfig:
    seed: int = 42
    dimension: int = 2
    points: int = 16
    box: float = None            # side length; default = points (unit spacing)
    boundary: str = "periodic"
    u: str = "1"
    theta: float = 0.5
    truncation: int = 16
    pairs: int = 24
    candidates: list = None
    out: str = None
    quick: bool = False


CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


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


def validate_config(cfg, need_dense=False):
    errors = []
    if not isinstance(cfg.seed, int) or isinstance(cfg.seed, bool) or cfg.seed < 0:
        errors.append("seed must be a non-negative integer, got %r" % (cfg.seed,))
    if cfg.dimension not in (2, 3, 4):
        errors.append("dimension must be 2, 3, or 4, got %r" % (cfg.dimension,))
    if not isinstance(cfg.points, int) or cfg.points < 3:
        errors.append("points must be an integer >= 3, got %r" % (cfg.points,))
    if cfg.box is not None:
        try:
            box = float(cfg.box)
            if not (math.isfinite(box) and box > 0):
                errors.append("box must be positive and finite, got %r"
                              % (cfg.box,))
        except (TypeError, ValueError):
            errors.append("box must be a number, got %r" % (cfg.box,))
    if cfg.boundary not in ("periodic", "clamped"):
        errors.append("boundary must be 'periodic' or 'clamped', got %r"
                      % (cfg.boundary,))
    try:
        ast = parse_expression(str(cfg.u))
        extra = variables_used(ast) - {"t"}
        if extra:
            errors.append("u must depend on t only, found %s"
                          % sorted(extra))
    except ExpressionError as exc:
        errors.append("u does not parse: %s" % exc)
    try:
        theta = float(cfg.theta)
        if not (math.isfinite(theta) and theta > 0):
            errors.append("theta must be positive and finite, got %r"
                          % (cfg.theta,))
    except (TypeError, ValueError):
        errors.append("theta must be a number, got %r" % (cfg.theta,))
    if not isinstance(cfg.truncation, int) or not 2 <= cfg.truncation <= 32:
        errors.append("truncation must be an integer in [2, 32], got %r"
                      % (cfg.truncation,))
    if not isinstance(cfg.pairs, int) or not 1 <= cfg.pairs <= 10000:
        errors.append("pairs must be an integer in [1, 10000], got %r"
                      % (cfg.pairs,))
    if cfg.out is not None and not isinstance(cfg.out, str):
        errors.append("out must be a directory path string, got %r" % (cfg.out,))
    if not isinstance(cfg.quick, bool):
        errors.append("quick must be true or false, got %r" % (cfg.quick,))
    if cfg.candidates is not None:
        if not isinstance(cfg.candidates, (list, tuple)) or not cfg.candidates:
            errors.append("candidates must be a non-empty list of expressions")
        else:
            if isinstance(cfg.dimension, int) and cfg.dimension in (2, 3, 4):
                allowed = set(AXIS_NAMES[: cfg.dimension])
            else:
                allowed = set(AXIS_NAMES)
            for cand in cfg.candidates:
                try:
                    cast = parse_expression(str(cand))
                    extra = variables_used(cast) - allowed
                    if extra:
                        errors.append("candidate %r uses variables %s outside "
                                      "axes %s" % (cand, sorted(extra),
                                                   sorted(allowed)))
                except ExpressionError as exc:
                    errors.append("candidate %r does not parse: %s" % (cand, exc))
    if need_dense and not errors:
        spinor = 2 ** (cfg.dimension // 2)
        dense = cfg.points ** cfg.dimension * spinor
        if dense > dirac.DENSE_LIMIT:
            errors.append("lattice too large for dense verification: "
                          "%d^%d sites x %d spinor components = %d > %d"
                          % (cfg.points, cfg.dimension, spinor, dense,
                             dirac.DENSE_LIMIT))
    if need_dense and not errors:
        try:
            with np.errstate(all="ignore"):
                u = ScalarField.from_expression(_lattice(cfg), str(cfg.u)).values
        except ExpressionError as exc:
            errors.append("u cannot be evaluated on the lattice: %s" % exc)
        else:
            if not np.all(np.isfinite(u) & (u > 0)):
                errors.append("u = %r must be positive and finite at every "
                              "site of the %d^%d lattice"
                              % (str(cfg.u), cfg.points, cfg.dimension))
    return errors


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json stays deterministic."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def write_json(path, obj):
    with open(path, "w", newline="\n") as fh:
        json.dump(_plain(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _line(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    text = "%s %-36s %s" % (tag, name, detail)
    print(text.rstrip())
    return ok


def _outdir(cfg):
    out = cfg.out or os.environ.get(OUTPUT_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _lattice(cfg):
    side = float(cfg.box) if cfg.box is not None else float(cfg.points)
    extents = tuple((0.0, side) for _ in range(cfg.dimension))
    return Lattice(extents, (cfg.points,) * cfg.dimension, cfg.boundary)


def _operator(cfg):
    lat = _lattice(cfg)
    ufield = ScalarField.from_expression(lat, str(cfg.u))
    return dirac.DiracOperator(clifford.build_gamma(cfg.dimension), lat, ufield)


# ------------------------------------------------------------- subcommands


def run_verify(cfg):
    ok = True
    payload = {"clifford": {}, "axioms": None,
               "config": {"dimension": cfg.dimension, "points": cfg.points,
                          "boundary": cfg.boundary, "u": str(cfg.u),
                          "seed": cfg.seed}}
    for n in (2, 3, 4, 6):
        rep = clifford.build_gamma(n)
        crep = clifford.check_clifford(rep)
        payload["clifford"][str(n)] = crep.to_dict()
        ok &= _line("clifford n=%d" % n, crep.passed,
                    "max residual %.3e" % crep.max_residual)
    op = _operator(cfg)
    arep = dirac.check_temporal_axioms(op, seed=cfg.seed)
    payload["axioms"] = arep.to_dict()
    ok &= _line("temporal commutator hermitian",
                arep.hermiticity_residual <= dirac.HERMITICITY_TOL,
                "residual %.3e" % arep.hermiticity_residual)
    ok &= _line("[D,T]^2 scalar and positive",
                arep.u_square_deviation <= dirac.U_SQUARE_TOL
                and arep.u_ax_min > 0,
                "deviation %.3e, range [%.6g, %.6g]"
                % (arep.u_square_deviation, arep.u_ax_min, arep.u_ax_max))
    ok &= _line("u_ax * u_metric = 1",
                arep.reciprocal_residual <= 1e-12,
                "residual %.3e" % arep.reciprocal_residual)
    ok &= _line("[D,T] D skew-adjoint",
                arep.skew_residual <= dirac.SKEW_TOL,
                "residual %.3e" % arep.skew_residual)
    ok &= _line("Krein skewness (both forms)",
                max(arep.krein_skew_residual,
                    arep.krein_equiv_residual) <= dirac.KREIN_TOL,
                "residuals %.3e / %.3e"
                % (arep.krein_skew_residual, arep.krein_equiv_residual))
    ok &= _line("[D,T] commutes with functions",
                arep.commute_residual <= dirac.COMMUTE_TOL,
                "residual %.3e" % arep.commute_residual)
    if arep.elliptic_min_eigenvalue is not None:
        ok &= _line("<D>^2 hermitian and non-negative",
                    arep.elliptic_hermiticity <= dirac.ELLIPTIC_HERM_TOL
                    and arep.elliptic_min_eigenvalue >= dirac.ELLIPTIC_EIG_FLOOR,
                    "min eigenvalue %.3e" % arep.elliptic_min_eigenvalue)
    payload["passed"] = bool(ok)
    return bool(ok), payload


def run_distance(cfg):
    rng = np.random.default_rng(cfg.seed)
    d = cfg.dimension
    # clamped boundary: steep candidates are not periodic, and wrapped
    # difference stencils would corrupt their boundary gradients
    op = dirac.flat_operator(d, cfg.points, boundary="clamped")
    spatial = AXIS_NAMES[1:d]
    cands = list(cfg.candidates) if cfg.candidates else \
        distance.boosted_candidate_expressions(axes=spatial)

    rows = []
    worst_boosted = 0.0
    worst_gap_low = 0.0
    worst_gap_high = 0.0
    for i in range(cfg.pairs):
        p = tuple(rng.uniform(-3.0, 3.0, size=d))
        q = tuple(rng.uniform(-3.0, 3.0, size=d))
        oracle = distance.minkowski_oracle(p, q)
        boosted = distance.boosted_family_distance(p, q)
        vres = distance.variational_distance(p, q, cands, op)
        worst_boosted = max(worst_boosted, abs(boosted.value - oracle))
        worst_gap_low = min(worst_gap_low, vres.value - oracle)
        worst_gap_high = max(worst_gap_high, vres.value - oracle)
        pair = distance.EventPair(p, q)
        rows.append((i, pair.dt, pair.spatial_separation, oracle,
                     boosted.value, vres.value, vres.achieving))
    ok = _line("boosted family matches oracle",
               worst_boosted <= BOOSTED_TOL,
               "max |error| %.3e over %d pairs" % (worst_boosted, cfg.pairs))
    ok &= _line("variational bound above oracle",
                worst_gap_low >= VARIATIONAL_FLOOR,
                "min gap %.3e, max gap %.3e" % (worst_gap_low, worst_gap_high))
    payload = {
        "pairs": cfg.pairs,
        "dimension": d,
        "seed": cfg.seed,
        "candidates": [str(c) for c in cands],
        "max_boosted_error": float(worst_boosted),
        "min_variational_gap": float(worst_gap_low),
        "max_variational_gap": float(worst_gap_high),
        "passed": bool(ok),
    }
    return bool(ok), payload, rows


def write_distance_csv(path, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write("pair,dt,r,oracle,boosted,variational,achieving\n")
        for (i, dt, r, oracle, boosted, vari, ach) in rows:
            fh.write("%d,%r,%r,%r,%r,%r,%s\n"
                     % (i, float(dt), float(r), float(oracle),
                        float(boosted), float(vari), ach))


def run_moyal(cfg):
    suite = moyal.run_moyal_suite(theta=float(cfg.theta),
                                  truncation=cfg.truncation, quick=cfg.quick)
    _line("matrix basis delta algebra",
          suite["delta_algebra"]["passed"],
          "projection %.3e, product %.3e"
          % (suite["delta_algebra"]["projection_residual"],
             suite["delta_algebra"]["product_residual"]))
    _line("engines agree on basis products",
          suite["cross_engine"]["passed"],
          "quadrature %.3e, twisted %.3e"
          % (suite["cross_engine"]["quadrature_vs_basis"],
             suite["cross_engine"]["twisted_vs_basis"]))
    _line("[x,y]_* = i theta (extrapolated)",
          suite["commutation"]["passed"],
          "residual %.3e" % suite["commutation"]["residual"])
    _line("time central iff Theta row 0 = 0",
          suite["center_time"]["passed"],
          "; ".join("%s %.1e" % (c["theta_case"], c["commutator_residual"])
                    for c in suite["center_time"]["cases"]))
    _line("gaussian closed form",
          suite["gaussian_oracle_residual"] <= moyal.GAUSSIAN_TOL,
          "residual %.3e" % suite["gaussian_oracle_residual"])
    _line("trace property", suite["trace_residual"] <= moyal.TRACE_TOL,
          "residual %.3e" % suite["trace_residual"])
    _line("associativity",
          suite["associativity_residual"] <= moyal.ASSOCIATIVITY_TOL,
          "residual %.3e" % suite["associativity_residual"])
    _line("involution", suite["involution_residual"] <= moyal.INVOLUTION_TOL,
          "residual %.3e" % suite["involution_residual"])
    return bool(suite["passed"]), suite


def run_filtration(cfg):
    lat = Lattice(((-8.0, 8.0), (-2.0, 2.0)), (65, 5), boundary="clamped")
    rng = np.random.default_rng(cfg.seed)

    t_elem = filtration.FilteredElement.time_element()
    tnorm = filtration.weighted_norm(t_elem, -1, lat)
    grading = filtration.operator_norm_grading_check(t_elem, lat, trials=8,
                                                     seed=cfg.seed)

    def random_element(degree):
        c = rng.uniform(-2.0, 2.0, size=3)
        text = "%r*sin(t) + %r*cos(x) + %r" % tuple(float(v) for v in c)
        return filtration.FilteredElement.from_expression(text, degree)

    worst_sub = -np.inf
    for _ in range(20):
        a = random_element(int(rng.integers(-2, 3)))
        b = random_element(int(rng.integers(-2, 3)))
        worst_sub = max(worst_sub,
                        filtration.submultiplicativity_residual(a, b, lat))

    worst_well = 0.0
    states = [tuple(rng.uniform(-5.0, 5.0, size=2)) for _ in range(6)]
    for _ in range(20):
        a = random_element(int(rng.integers(-1, 3)))
        b = a.to_degree(a.degree - int(rng.integers(1, 3)))
        worst_well = max(worst_well,
                         filtration.well_definedness_check(a, b, lat, states))

    toy = filtration.ToyAlgebra(tuple(np.linspace(-3.0, 3.0, 8)))
    central = filtration.central_multiplicativity_check(toy, trials=500,
                                                        seed=cfg.seed)
    try:
        filtration.extend_state((float("inf"), 0.0), t_elem)
        rejection_works = False
    except ValueError:
        rejection_works = True

    ok = _line("time element is a contraction", tnorm < 1.0,
               "||T||_{-1} = %.12f" % tnorm)
    ok &= _line("operator norm independent of grade",
                grading.spread <= filtration.NORM_SPREAD_TOL
                and grading.bound_ok and grading.approach_ok,
                "spread %.3e" % grading.spread)
    ok &= _line("weighted norms submultiplicative",
                worst_sub <= filtration.SUBMULT_TOL,
                "worst relative slack %.3e" % worst_sub)
    ok &= _line("state extension well defined",
                worst_well <= filtration.WELL_DEFINED_TOL,
                "max extension deviation %.3e" % worst_well)
    ok &= _line("multiplicative on central elements",
                central.max_central_residual <= filtration.CENTRAL_TOL,
                "max residual %.3e over %d trials"
                % (central.max_central_residual, central.trials))
    ok &= _line("non-central counterexample violates",
                central.counterexample_residual > 0.1,
                "violation %.6f" % central.counterexample_residual)
    ok &= _line("degenerate state rejected", rejection_works,
                "chi((1+T^2)^(-1/2)) = 0 raises")
    payload = {
        "time_element_norm": float(tnorm),
        "grading": grading.to_dict(),
        "worst_submultiplicativity_slack": float(worst_sub),
        "worst_well_definedness": float(worst_well),
        "central_multiplicativity": central.to_dict(),
        "rejection_guard": bool(rejection_works),
        "seed": cfg.seed,
        "passed": bool(ok),
    }
    return bool(ok), payload


def run_report(cfg):
    ok_v, verify_payload = run_verify(cfg)
    ok_d, dist_payload, rows = run_distance(cfg)
    moyal_cfg = RunConfig(**{f.name: getattr(cfg, f.name) for f in fields(RunConfig)})
    moyal_cfg.quick = True
    ok_m, moyal_payload = run_moyal(moyal_cfg)
    ok_f, filt_payload = run_filtration(cfg)
    scan = steepness.equivalence_scan(500, cfg.seed, dimension=2)
    ok_s = _line("steepness routes agree", not scan.disagreements,
                 "%d/%d agree" % (scan.agreements, scan.samples))
    ok = ok_v and ok_d and ok_m and ok_f and ok_s
    payload = {
        "verify": verify_payload,
        "distance": dist_payload,
        "moyal": moyal_payload,
        "filtration": filt_payload,
        "steepness_equivalence": scan.to_dict(),
        "passed": bool(ok),
    }
    return bool(ok), payload, rows


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
    errors += validate_config(cfg, need_dense=args.command in ("verify", "report"))
    if errors:
        for err in errors:
            print("config error: %s" % err, file=sys.stderr)
        return EXIT_CONFIG

    out = _outdir(cfg)
    try:
        if args.command == "verify":
            ok, payload = run_verify(cfg)
            write_json(os.path.join(out, "verify.json"), payload)
        elif args.command == "distance":
            ok, payload, rows = run_distance(cfg)
            write_json(os.path.join(out, "distance.json"), payload)
            write_distance_csv(os.path.join(out, "distance.csv"), rows)
        elif args.command == "moyal":
            ok, payload = run_moyal(cfg)
            write_json(os.path.join(out, "moyal.json"), payload)
        elif args.command == "filtration":
            ok, payload = run_filtration(cfg)
            write_json(os.path.join(out, "filtration.json"), payload)
        elif args.command == "report":
            ok, payload, rows = run_report(cfg)
            write_json(os.path.join(out, "report.json"), payload)
            write_distance_csv(os.path.join(out, "distance.csv"), rows)
        else:                                    # pragma: no cover
            parser.error("unknown command %r" % (args.command,))
    except (ExpressionError, ValueError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK if ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
