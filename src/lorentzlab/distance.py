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

An event is a float array with its coordinates (t, x, ...) on the last
axis; ``minkowski_oracle`` and ``variational_distance`` take one event or a
stack of them for each of p and q and return one value per pair.  The
boosted family is a scalar golden section per pair, the route the oracle is
checked against.  A candidate is an expression string or a filtered
element; a filtered element is evaluated at events by the pure-state
extension rule, ``filtration.extend_state``.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from . import expressions
from .checks import Check, verdict
from .dirac import flat_operator
from .expressions import AXIS_NAMES
from .filtration import FilteredElement, extend_state
from .lattice import Lattice, ScalarField
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


def _events(p, q, lattice=None):
    """p and q as float arrays of one shape, coordinates on the last axis.

    With a lattice, every event must have its dimension and lie in its box:
    outside it, nothing is known about the candidates' gradients.
    """
    p, q = (np.atleast_1d(np.asarray(e, dtype=float)) for e in (p, q))
    if p.shape[-1] != q.shape[-1]:
        raise ValueError("events have different dimensions: %d vs %d"
                         % (p.shape[-1], q.shape[-1]))
    if p.shape[-1] < 1:
        raise ValueError("events need at least a time coordinate")
    p, q = np.broadcast_arrays(p, q)
    if lattice is None:
        return p, q
    if p.shape[-1] != lattice.dimension:
        raise ValueError("event dimension %d does not match operator "
                         "dimension %d" % (p.shape[-1], lattice.dimension))
    lo, hi = np.transpose(lattice.extents)
    for events in (p, q):
        outside = ~np.all((lo <= events) & (events <= hi), axis=-1)
        if outside.any():
            raise ValueError("event %r lies outside the certified box %r"
                             % (tuple(events[outside][0].tolist()),
                                lattice.extents))
    return p, q


def _separation(p, q):
    """Time separation dt and spatial separation r of each pair."""
    return q[..., 0] - p[..., 0], np.linalg.norm(q[..., 1:] - p[..., 1:], axis=-1)


def minkowski_oracle(p, q):
    """sqrt(dt^2 - r^2) where q lies in the causal future of p, else 0."""
    dt, r = _separation(*_events(p, q))
    return np.where(dt >= r, np.sqrt(np.maximum(dt * dt - r * r, 0.0)), 0.0)[()]


def boosted_family_distance(p, q):
    """inf over v in [0, 1) of gamma_v (dt - v r), clipped at zero.

    h'(v) = gamma_v^3 (v dt - r): h is unimodal with interior minimum at
    v* = r/dt for timelike pairs; for spacelike or past pairs the infimum
    over the closed-up family is <= 0 and the distance is exactly 0.
    p and q are single events; returns a float.
    """
    dt, r = map(float, _separation(*_events(p, q)))
    if dt <= 0.0 or dt < r:
        return 0.0      # family can be driven to a non-positive value
    if r == 0.0:
        return dt

    def h(v):
        return (dt - v * r) / np.sqrt(1.0 - v * v)

    _, h_star = golden_section(h, 0.0, V_CAP)
    return max(0.0, float(min(h_star, h(0.0))))   # h(0) = dt is in the family


# ------------------------------------------------------------- variational


def _resolve_candidate(cand, lattice):
    """Returns (label, ScalarField on `lattice`, values at a stack of events)."""
    if isinstance(cand, FilteredElement):
        return (cand.label or "filtered", cand.sample(lattice),
                lambda events: np.real(extend_state(events, cand)))
    if not isinstance(cand, str):
        raise TypeError("unsupported candidate type: %r"
                        % (type(cand).__name__,))
    ast, fn = expressions.compile_expression(cand)
    names = lattice.axis_names
    return (cand, ScalarField.from_expression(lattice, ast),
            lambda events: fn(**dict(zip(names, np.moveaxis(events, -1, 0)))))


@dataclass(frozen=True)
class CandidatePool:
    """Candidates certified steep on one operator lattice.

    `certified` holds (label, value_at, hermiticity_residual) per steep
    candidate in input order, the residual that of its constraint matrices;
    `rejected` holds one {candidate, worst_margin} record per candidate that
    failed.
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
    boundary gradients.  A candidate that overflows on the lattice has NaN
    margins, which fail its sites, so its floating-point warnings are not
    raised.  A candidate that cannot be evaluated on the lattice is an
    ExpressionError that names it.  Raises when no candidate is certified.
    """
    certified = []
    rejected = []
    for cand in candidates:
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                label, fld, value_at = _resolve_candidate(cand, dirac.lattice)
            except expressions.ExpressionError as exc:
                raise expressions.ExpressionError(
                    "candidate %r cannot be evaluated on the certification "
                    "lattice: %s" % (cand, exc)) from exc
            report = is_steep_matrix(fld, dirac)
        if report.steep:
            certified.append((label, value_at, report.hermiticity_residual))
        else:
            rejected.append({"candidate": label,
                             "worst_margin": report.worst_margin})
    if not certified:
        raise ValueError("no steep candidates: all %d candidate(s) failed "
                         "certification" % len(rejected))
    return CandidatePool(dirac.lattice, tuple(certified), tuple(rejected))


def variational_distance(p, q, pool):
    """inf over the certified candidates f of `pool` of max(0, f(q) - f(p)).

    p and q are single events or stacks; every event must lie in the box of
    the lattice the pool was certified on.  Each candidate is evaluated once
    on all events.  Returns (distances, achieving labels), one per pair;
    of equal values the first candidate wins.
    """
    p, q = _events(p, q, pool.lattice)
    events = np.stack((p, q))
    gaps = []
    for _, value_at, _ in pool.certified:
        values = value_at(events)
        gap = values[1] - values[0]
        gaps.append(np.where(gap > 0.0, gap, 0.0))      # max(0, gap)
    best = np.argmin(gaps, axis=0)
    labels = np.array([label for label, *_ in pool.certified], dtype=object)
    return np.min(gaps, axis=0)[()], labels[best]


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


def certification_operator(dimension, points):
    """Flat D on a clamped lattice (steep candidates are not periodic) over
    the box [-PAIR_EXTENT, PAIR_EXTENT]^d the suite's events are drawn from."""
    box = ((-PAIR_EXTENT, PAIR_EXTENT),) * dimension
    return flat_operator(dimension, points, box=box, boundary="clamped")


def run_distance_suite(pairs, op, seed, candidates=None):
    """Distances on seeded random pairs, the candidates certified once on `op`
    (a `certification_operator`); returns (checks, payload, rows).  All
    pairs come from one draw, p then q for each pair."""
    dimension = op.lattice.dimension
    cands = list(candidates) if candidates else \
        boosted_candidate_expressions(axes=AXIS_NAMES[1:dimension])
    pool = certify_candidates(cands, op)

    events = default_rng(seed).uniform(-PAIR_EXTENT, PAIR_EXTENT,
                                       size=(pairs, 2, dimension))
    p, q = events[:, 0], events[:, 1]
    oracle = minkowski_oracle(p, q)
    boosted = np.array([boosted_family_distance(a, b) for a, b in zip(p, q)])
    variational, achieving = variational_distance(p, q, pool)
    gap = variational - oracle
    worst_boosted = float(np.max(np.abs(boosted - oracle), initial=0.0))
    worst_gap_low = float(np.min(gap, initial=0.0))
    worst_gap_high = float(np.max(gap, initial=0.0))
    rows = list(zip(range(pairs), *_separation(p, q), oracle, boosted,
                    variational, achieving))
    # np.max keeps a NaN residual
    herm = float(np.max([h for *_, h in pool.certified]))
    checks = (
        Check("boosted family matches oracle", worst_boosted, "<=", BOOSTED_TOL),
        Check("variational bound above oracle", worst_gap_low, ">=",
              VARIATIONAL_FLOOR),
    )
    payload = {
        "pairs": pairs,
        "dimension": dimension,
        "seed": seed,
        "candidates": [str(c) for c in cands],
        "rejected": list(pool.rejected),
        "max_certified_hermiticity_residual": herm,
        "max_boosted_error": worst_boosted,
        "min_variational_gap": worst_gap_low,
        "max_variational_gap": worst_gap_high,
        **verdict(checks),
    }
    return checks, payload, rows
