"""Lorentzian distance between events: oracle, boosted family, variational.

Three routes for the causal distance d(p, q):

* ``minkowski_oracle``     closed form sqrt(dt^2 - r^2) when dt >= r, else 0.
* ``boosted_family_distance``  minimizes h(v) = gamma_v (dt - v r) over boost
  velocities; each boosted time function gamma_v (t - v e.x) has causal
  gradient of norm exactly -1, so every h(v) is an upper bound and the
  infimum reproduces the oracle.
* ``variational_distance``  inf over a supplied candidate set of steep
  functions of max(0, f(q) - f(p)); candidates are certified steep on the
  operator side before being admitted, and rejected ones are reported.

Values at off-lattice events use the pure-state extension rule (evaluation
states), so candidates may be expressions, callables, or filtered elements.
``conformal_time_distance`` integrates sqrt(u) dt for conformally flat
metrics -u(t) dt^2 + dx^2 along pure time displacements.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from . import expressions
from .checks import Check
from .dirac import flat_operator
from .filtration import FilteredElement
from .lattice import AXIS_NAMES, ScalarField
from .steepness import EIG_TOL, is_steep_matrix

GOLDEN_TOL = 1e-10
V_CAP = 1.0 - 1e-12
BOOSTED_TOL = 1e-6
VARIATIONAL_FLOOR = -1e-9


def golden_section(fn, lo, hi, tol=GOLDEN_TOL, max_iter=200):
    """Minimize a unimodal function on [lo, hi]; returns (x, fn(x))."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


@dataclass(frozen=True)
class EventPair:
    p: tuple
    q: tuple

    def __post_init__(self):
        if len(self.p) != len(self.q):
            raise ValueError("events have different dimensions: %d vs %d"
                             % (len(self.p), len(self.q)))
        if len(self.p) < 1:
            raise ValueError("events need at least a time coordinate")

    @property
    def dt(self):
        return float(self.q[0] - self.p[0])

    @property
    def spatial_separation(self):
        d = np.asarray(self.q[1:], dtype=float) - np.asarray(self.p[1:], dtype=float)
        return float(np.linalg.norm(d))

    @property
    def direction(self):
        """Unit vector along the spatial displacement (zeros if coincident)."""
        d = np.asarray(self.q[1:], dtype=float) - np.asarray(self.p[1:], dtype=float)
        r = np.linalg.norm(d)
        return d / r if r > 0 else d


def _as_pair(p, q=None):
    if isinstance(p, EventPair):
        return p
    return EventPair(tuple(float(v) for v in p), tuple(float(v) for v in q))


@dataclass
class DistanceResult:
    value: float
    mode: str
    params: dict = field(default_factory=dict)
    achieving: str = ""
    rejected: list = field(default_factory=list)
    gap_vs_oracle: float = float("nan")

    def to_dict(self):
        return {
            "value": self.value,
            "mode": self.mode,
            "params": dict(self.params),
            "achieving": self.achieving,
            "rejected": list(self.rejected),
            "gap_vs_oracle": self.gap_vs_oracle,
        }


def minkowski_oracle(p, q=None):
    """sqrt(dt^2 - r^2) if q lies in the causal future of p, else 0."""
    pair = _as_pair(p, q)
    dt, r = pair.dt, pair.spatial_separation
    if dt >= r:
        return float(np.sqrt(max(dt * dt - r * r, 0.0)))
    return 0.0


def boost_matrix(v, axis=1, dimension=2):
    """Lorentz boost with velocity v along the given spatial axis."""
    if not -1.0 < v < 1.0:
        raise ValueError("boost velocity must satisfy |v| < 1")
    if not 1 <= axis < dimension:
        raise ValueError("boost axis out of range")
    g = 1.0 / np.sqrt(1.0 - v * v)
    m = np.eye(dimension)
    m[0, 0] = m[axis, axis] = g
    m[0, axis] = m[axis, 0] = -g * v
    return m


def boosted_family_distance(p, q=None, tol=GOLDEN_TOL):
    """inf over v in [0, 1) of gamma_v (dt - v r), clipped at zero.

    h'(v) = gamma_v^3 (v dt - r): h is unimodal with interior minimum at
    v* = r/dt for timelike pairs; for spacelike or past pairs the infimum
    over the closed-up family is <= 0 and the distance is exactly 0.
    """
    pair = _as_pair(p, q)
    dt, r = pair.dt, pair.spatial_separation

    if dt <= 0.0 or dt < r:
        # family can be driven to a non-positive value: exact zero
        return DistanceResult(0.0, "boosted",
                              params={"dt": dt, "r": r, "v": float("nan")})
    if r == 0.0:
        return DistanceResult(dt, "boosted", params={"dt": dt, "r": r, "v": 0.0})

    def h(v):
        return (dt - v * r) / np.sqrt(1.0 - v * v)

    v_star, h_star = golden_section(h, 0.0, V_CAP, tol=tol)
    value = min(h_star, h(0.0))        # h(0) = dt is always in the family
    return DistanceResult(max(0.0, float(value)), "boosted",
                          params={"dt": dt, "r": r, "v": float(v_star),
                                  "direction": pair.direction.tolist()})


def conformal_time_distance(t0, t1, u="1"):
    """Distance along a pure time displacement for ds^2 = -u(t)dt^2 + dx^2.

    The steep time function is tau(t) = int sqrt(u); the distance between
    (t0, x) and (t1, x) is tau(t1) - tau(t0) for t1 >= t0, else 0.
    """
    if callable(u):
        u_fn = u
    else:
        _, compiled = expressions.compile_expression(str(u))
        u_fn = lambda t: compiled(t=np.asarray(t, dtype=float))
    t0, t1 = float(t0), float(t1)
    if t1 <= t0:
        return DistanceResult(0.0, "conformal", params={"t0": t0, "t1": t1})
    for ts in np.linspace(t0, t1, 7):
        if not float(u_fn(ts)) > 0.0:
            raise ValueError("u(t) must be positive on [t0, t1]; "
                             "u(%r) = %r" % (ts, float(u_fn(ts))))
    from scipy.integrate import quad    # deferred: it also loads scipy.optimize
    val, err = quad(lambda s: np.sqrt(float(u_fn(s))), t0, t1,
                    epsabs=1e-12, epsrel=1e-12, limit=200)
    return DistanceResult(float(val), "conformal",
                          params={"t0": t0, "t1": t1, "quad_error": float(err)})


# ------------------------------------------------------------- variational


def _resolve_candidate(cand, dirac):
    """Returns (label, ScalarField on the operator lattice, value_at(point))."""
    lat = dirac.lattice
    names = lat.axis_names

    if isinstance(cand, FilteredElement):
        fld = cand.sample(lat)
        label = cand.label or "filtered"
        value_at = lambda pt: float(np.real(cand.value_at(pt, axis_names=names)))
        return label, fld, value_at

    if isinstance(cand, str):
        _, fn = expressions.compile_expression(cand)
        fld = ScalarField.from_expression(lat, cand)
        def value_at(pt, fn=fn):
            env = {nm: np.asarray(float(v)) for nm, v in zip(names, pt)}
            return float(np.asarray(fn(**env)))
        return cand, fld, value_at

    if callable(cand):
        fld = ScalarField.from_callable(lat, cand)
        def value_at(pt, fn=cand):
            env = {nm: np.asarray(float(v)) for nm, v in zip(names, pt)}
            return float(np.asarray(fn(**env)))
        return getattr(cand, "__name__", "callable"), fld, value_at

    raise TypeError("unsupported candidate type: %r" % (type(cand).__name__,))


def variational_distance(p, q, candidates, dirac, gamma_ch=None,
                         tol=EIG_TOL, compare_oracle=True):
    """inf over certified steep candidates f of max(0, f(q) - f(p)).

    Each candidate is checked for steepness on the operator lattice first;
    candidates failing the matrix inequality are excluded and recorded with
    their worst margin.  Raises when no candidate is certified.

    Certification differentiates candidates with the lattice stencil, so
    non-periodic candidates (t, boosts, ...) need an operator on a clamped
    lattice; a periodic wrap would corrupt their boundary gradients.
    """
    pair = _as_pair(p, q)
    if len(pair.p) != dirac.lattice.dimension:
        raise ValueError("event dimension %d does not match operator "
                         "dimension %d" % (len(pair.p), dirac.lattice.dimension))

    rejected = []
    best = None
    best_label = ""
    best_report = None
    for cand in candidates:
        label, fld, value_at = _resolve_candidate(cand, dirac)
        report = is_steep_matrix(fld, dirac, gamma_ch=gamma_ch, tol=tol)
        if not report.steep:
            rejected.append({"candidate": label,
                             "worst_margin": report.worst_margin,
                             "orientation_ok": report.orientation_ok})
            continue
        val = max(0.0, value_at(pair.q) - value_at(pair.p))
        if best is None or val < best:
            best, best_label, best_report = val, label, report
    if best is None:
        raise ValueError("no steep candidates: all %d candidate(s) failed "
                         "certification" % len(rejected))

    gap = float("nan")
    if compare_oracle:
        gap = best - minkowski_oracle(pair)
    return DistanceResult(best, "variational",
                          params={"certified": True,
                                  "worst_margin": best_report.worst_margin},
                          achieving=best_label, rejected=rejected,
                          gap_vs_oracle=gap)


def boosted_candidate_expressions(velocities=(0.0, 0.25, 0.5, 0.75),
                                  axes=("x",)):
    """Expression strings gamma_v * (t - v*axis) for candidate pools."""
    out = []
    for ax in axes:
        for v in velocities:
            if v == 0.0:
                if "t" not in out:
                    out.append("t")
                continue
            g = 1.0 / np.sqrt(1.0 - v * v)
            out.append("%r * (t - %r * %s)" % (float(g), float(v), ax))
    return out


def run_distance_suite(pairs, dimension, points, seed, candidates=None):
    """Distances on seeded random pairs; returns (checks, payload, rows).

    Certification runs on a clamped lattice: steep candidates are not
    periodic, and wrapped stencils would corrupt their boundary gradients.
    """
    rng = default_rng(seed)
    op = flat_operator(dimension, points, boundary="clamped")
    cands = list(candidates) if candidates else \
        boosted_candidate_expressions(axes=AXIS_NAMES[1:dimension])

    rows = []
    worst_boosted = 0.0
    worst_gap_low = 0.0
    worst_gap_high = 0.0
    for i in range(pairs):
        p = tuple(rng.uniform(-3.0, 3.0, size=dimension))
        q = tuple(rng.uniform(-3.0, 3.0, size=dimension))
        oracle = minkowski_oracle(p, q)
        boosted = boosted_family_distance(p, q)
        vres = variational_distance(p, q, cands, op)
        worst_boosted = max(worst_boosted, abs(boosted.value - oracle))
        worst_gap_low = min(worst_gap_low, vres.value - oracle)
        worst_gap_high = max(worst_gap_high, vres.value - oracle)
        pair = EventPair(p, q)
        rows.append((i, pair.dt, pair.spatial_separation, oracle,
                     boosted.value, vres.value, vres.achieving))
    checks = (
        Check("boosted family matches oracle", worst_boosted <= BOOSTED_TOL,
              "max |error| %.3e over %d pairs" % (worst_boosted, pairs)),
        Check("variational bound above oracle",
              worst_gap_low >= VARIATIONAL_FLOOR,
              "min gap %.3e, max gap %.3e" % (worst_gap_low, worst_gap_high)),
    )
    payload = {
        "pairs": pairs,
        "dimension": dimension,
        "seed": seed,
        "candidates": [str(c) for c in cands],
        "max_boosted_error": float(worst_boosted),
        "min_variational_gap": float(worst_gap_low),
        "max_variational_gap": float(worst_gap_high),
        "passed": all(c.passed for c in checks),
    }
    return checks, payload, rows
