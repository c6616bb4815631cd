"""Lorentzian distance between events: oracle, boosted family, variational.

Three routes for the causal distance d(p, q):

* ``minkowski_oracle``     closed form sqrt(dt^2 - r^2) when dt >= r, else 0.
* ``boosted_family_distance``  minimizes h(v) = gamma_v (dt - v r) over boost
  velocities; each boosted time function gamma_v (t - v e.x) has causal
  gradient of norm exactly -1, so every h(v) is an upper bound and the
  infimum reproduces the oracle.
* ``variational_distance``  inf over a pool of steep functions of
  max(0, f(q) - f(p)).  ``certify_candidates`` builds the pool once: each
  candidate is certified steep on the operator side before it is admitted,
  and rejected ones are reported.  Events outside the pool's lattice box
  are refused.

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
from .lattice import AXIS_NAMES, Lattice, ScalarField
from .steepness import is_steep_matrix

GOLDEN_TOL = 1e-10
GOLDEN_MAX_ITER = 200
V_CAP = 1.0 - 1e-12
BOOSTED_TOL = 1e-6
VARIATIONAL_FLOOR = -1e-9
PAIR_EXTENT = 3.0     # distance suite: events and certification box in [-3, 3]^d
BOOST_VELOCITIES = (0.0, 0.25, 0.5, 0.75)   # the CLI's default candidate pool


def golden_section(fn, lo, hi):
    """Minimize a unimodal function on [lo, hi] to GOLDEN_TOL; returns (x, fn(x))."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(GOLDEN_MAX_ITER):
        if b - a <= GOLDEN_TOL:
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


def minkowski_oracle(p, q=None):
    """sqrt(dt^2 - r^2) if q lies in the causal future of p, else 0."""
    pair = _as_pair(p, q)
    dt, r = pair.dt, pair.spatial_separation
    if dt >= r:
        return float(np.sqrt(max(dt * dt - r * r, 0.0)))
    return 0.0


def boosted_family_distance(p, q=None):
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

    v_star, h_star = golden_section(h, 0.0, V_CAP)
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
        label, fn = cand, expressions.compile_expression(cand)[1]
        fld = ScalarField.from_expression(lat, cand)
    elif callable(cand):
        label, fn = getattr(cand, "__name__", "callable"), cand
        fld = ScalarField.from_callable(lat, cand)
    else:
        raise TypeError("unsupported candidate type: %r"
                        % (type(cand).__name__,))

    def value_at(pt):
        env = {nm: np.asarray(float(v)) for nm, v in zip(names, pt)}
        return float(np.asarray(fn(**env)))
    return label, fld, value_at


@dataclass(frozen=True)
class CandidatePool:
    """Candidates certified steep on one operator lattice.

    `certified` holds (label, value_at, worst_margin) per steep candidate in
    input order; `rejected` holds one record per candidate that failed.
    """
    lattice: Lattice
    certified: tuple
    rejected: tuple


def certify_candidates(candidates, dirac):
    """Certify each candidate once on the operator lattice; returns the pool.

    Steepness is a property of the function, not of the events, so one pool
    serves every pair.  Certification differentiates candidates with the
    lattice stencil, so non-periodic candidates (t, boosts, ...) need an
    operator on a clamped lattice; a periodic wrap would corrupt their
    boundary gradients.  Raises when no candidate is certified.
    """
    certified = []
    rejected = []
    for cand in candidates:
        label, fld, value_at = _resolve_candidate(cand, dirac)
        report = is_steep_matrix(fld, dirac)
        if report.steep:
            certified.append((label, value_at, report.worst_margin))
        else:
            rejected.append({"candidate": label,
                             "worst_margin": report.worst_margin,
                             "orientation_ok": report.orientation_ok})
    if not certified:
        raise ValueError("no steep candidates: all %d candidate(s) failed "
                         "certification" % len(rejected))
    return CandidatePool(dirac.lattice, tuple(certified), tuple(rejected))


def variational_distance(p, q, pool):
    """inf over the certified candidates f of `pool` of max(0, f(q) - f(p)).

    Both events must lie in the box of the lattice the pool was certified
    on: outside it, nothing is known about the candidates' gradients.
    """
    pair = _as_pair(p, q)
    lat = pool.lattice
    if len(pair.p) != lat.dimension:
        raise ValueError("event dimension %d does not match operator "
                         "dimension %d" % (len(pair.p), lat.dimension))
    for event in (pair.p, pair.q):
        if not all(lo <= x <= hi for x, (lo, hi) in zip(event, lat.extents)):
            raise ValueError("event %r lies outside the certified box %r"
                             % (event, lat.extents))

    # min keeps the first of equal values: a later candidate must be smaller
    value, label, margin = min(
        ((max(0.0, value_at(pair.q) - value_at(pair.p)), label, margin)
         for label, value_at, margin in pool.certified), key=lambda r: r[0])

    return DistanceResult(value, "variational",
                          params={"certified": True, "worst_margin": margin},
                          achieving=label, rejected=list(pool.rejected),
                          gap_vs_oracle=value - minkowski_oracle(pair))


def boosted_candidate_expressions(axes=("x",)):
    """Expression strings gamma_v * (t - v*axis), v in BOOST_VELOCITIES."""
    out = []
    for ax in axes:
        for v in BOOST_VELOCITIES:
            if v == 0.0:
                if "t" not in out:
                    out.append("t")
                continue
            g = 1.0 / np.sqrt(1.0 - v * v)
            out.append("%r * (t - %r * %s)" % (float(g), float(v), ax))
    return out


def run_distance_suite(pairs, dimension, points, seed, candidates=None):
    """Distances on seeded random pairs; returns (checks, payload, rows).

    The candidates are certified once, on a clamped lattice (steep candidates
    are not periodic) over the box [-PAIR_EXTENT, PAIR_EXTENT]^d the events
    are drawn from.
    """
    rng = default_rng(seed)
    box = ((-PAIR_EXTENT, PAIR_EXTENT),) * dimension
    op = flat_operator(dimension, points, box=box, boundary="clamped")
    cands = list(candidates) if candidates else \
        boosted_candidate_expressions(axes=AXIS_NAMES[1:dimension])
    pool = certify_candidates(cands, op)

    rows = []
    worst_boosted = 0.0
    worst_gap_low = 0.0
    worst_gap_high = 0.0
    for i in range(pairs):
        p = tuple(rng.uniform(-PAIR_EXTENT, PAIR_EXTENT, size=dimension))
        q = tuple(rng.uniform(-PAIR_EXTENT, PAIR_EXTENT, size=dimension))
        oracle = minkowski_oracle(p, q)
        boosted = boosted_family_distance(p, q)
        vres = variational_distance(p, q, pool)
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
