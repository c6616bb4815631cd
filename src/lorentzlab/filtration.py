"""Filtered algebras of time-weighted elements and pure-state extension.

An element of degree n is stored as a bounded part a0 together with n, and
stands for a = (1+T^2)^{n/2} a0 with T the time coordinate.  Degrees add
under multiplication; the time element itself has degree 1 with bounded part
t/sqrt(1+t^2), whose natural weighted norm ||T||_{-1} = sup |t|/sqrt(1+t^2)
is < 1.  Weighted norms and inner products:

    ||a||_m           = sup_x |(1+t^2)^{m/2} a(x)|
    <psi, phi>_n      = quadrature of conj(psi) phi (1+t^2)^n

The natural finite norm of a degree-n element is m = -n.  Multiplication by a
degree-n element maps H_k -> H_{k-n} boundedly with operator norm equal to
the weighted sup norm, independent of k; the maximizer is a spinor
concentrated at the achieving site, which makes the k-independence exact to
rounding.

Pure states extend from the bounded level by

    chi(a) = chi((1+T^2)^{-1/2})^{-n} chi(a0),

rejecting states with chi((1+T^2)^{-1/2}) = 0.  For an evaluation state at a
point p this is literally (1+t_p^2)^{n/2} a0(p).  The noncommutative side is
exercised on the toy algebra C^K (x) M2, 2x2 blocks over K = TOY_SITES
sites, whose pure states read the block of one site with a unit vector v
of C^2, chi(a) = conj(v) a v: chi(ab) = chi(a) chi(b) holds for central a
(a scalar per site) and any pure state, and fails for a non-central a.

The random trials of the checks are array operations: the grading spinors
of every grade come from one draw, in the order per-trial draws would take
them, and the centrality trials are one bulk panel evaluated by batched
products.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .checks import MIN_SCALE, Check, verdict
from .clifford import SIGMA1, SIGMA3
from .expressions import AXIS_NAMES
from .lattice import Lattice, ScalarField

SUBMULT_TOL = 1e-12          # relative
NORM_SPREAD_TOL = 1e-10      # relative, across H_n, n in -2..2
NORM_BOUND_TOL = 1e-12       # relative: estimates stay below the sup norm
NORM_APPROACH = 0.95         # and reach this share of it
WELL_DEFINED_TOL = 1e-12
CENTRAL_TOL = 1e-13
TIME_NORM_BOUND = 1.0        # ||T||_{-1} < 1: the time element is a contraction
COUNTEREXAMPLE_FLOOR = 0.1   # the non-central witness must violate by more
STATE_WEIGHT_FLOOR = 1e-300
DECOMPOSITION_TOL = 1e-9     # relative: two decompositions of one function
GRADING_TRIALS = 8           # random spinors per H_n, after the site delta
GRADING_GRADES = (-2, -1, 0, 1, 2)   # the n of each H_n
GRADING_SPINOR_DIM = 2
CENTRAL_TRIALS = 500
TOY_SITES = 8                # the K of the toy algebra C^K (x) M2


# --------------------------------------------------------------- elements


def time_weight(t, n):
    """(1+t^2)^{n/2}, the weight of degree n at time t."""
    return (1.0 + t ** 2) ** (n / 2.0)


@dataclass(frozen=True)
class FilteredElement:
    """a = (1+T^2)^{degree/2} * bounded_part."""

    degree: int
    bounded_part: object          # callable(**coords) -> ndarray
    label: str = ""

    @classmethod
    def time_element(cls):
        return cls(1, lambda **c: c["t"] / np.sqrt(1.0 + c["t"] ** 2), "T")

    def bounded_values(self, lattice: Lattice):
        vals = self.bounded_part(**lattice.environment())
        return np.broadcast_to(np.asarray(vals), lattice.shape)

    def sample(self, lattice: Lattice) -> ScalarField:
        t = lattice.coordinate_array(0)
        vals = time_weight(t, self.degree) * self.bounded_values(lattice)
        return ScalarField(lattice, np.array(vals))

    def multiply(self, other):
        """Degrees add; bounded parts multiply."""
        a0, b0 = self.bounded_part, other.bounded_part
        return FilteredElement(
            self.degree + other.degree,
            lambda **c: np.asarray(a0(**c)) * np.asarray(b0(**c)),
            label="(%s)*(%s)" % (self.label, other.label),
        )

    def to_degree(self, new_degree):
        """Re-express the same function at a different declared degree."""
        shift = self.degree - new_degree
        a0 = self.bounded_part
        return FilteredElement(
            new_degree,
            lambda **c: time_weight(c["t"], shift) * np.asarray(a0(**c)),
            label=self.label,
        )


def weighted_norm(elem: FilteredElement, m, lattice: Lattice):
    """sup over sites of |(1+t^2)^{m/2} a(x)|."""
    t = lattice.coordinate_array(0)
    a = elem.sample(lattice).values
    return float(np.max(np.abs(time_weight(t, m) * a)))


def submultiplicativity_residual(a, b, lattice):
    """Relative slack of ||ab||_{ma+mb} <= ||a||_ma ||b||_mb (negative = holds).

    Each norm is the natural one of its element, m = -degree.
    """
    m_a, m_b = -a.degree, -b.degree
    prod = a.multiply(b)
    lhs = weighted_norm(prod, m_a + m_b, lattice)
    rhs = weighted_norm(a, m_a, lattice) * weighted_norm(b, m_b, lattice)
    scale = max(rhs, MIN_SCALE)
    return (lhs - rhs) / scale


# ------------------------------------------------------ operator-norm grading


def operator_norm_grading_check(elem: FilteredElement, lattice: Lattice, seed=0):
    """Multiplication by `elem` as an operator H_n -> H_{n+m}, m = -degree.

    The estimate on each H_n, n in GRADING_GRADES, is the max Rayleigh ratio
    over GRADING_TRIALS random spinors plus the site-delta at the achieving
    site of |(1+t^2)^{m/2} a|; it must stay below the weighted sup norm
    (within rounding) and reach it, and be independent of n.  The spinors of
    all grades are one draw, the same stream as one draw per trial, and each
    grade's ratios are reductions over the lattice and spinor axes.
    """
    m = -elem.degree
    shape = lattice.shape + (GRADING_SPINOR_DIM,)
    t = lattice.coordinate_array(0)
    a = elem.sample(lattice).values
    target = np.abs(time_weight(t, m) * a)
    sup = float(target.max())
    best_site = np.unravel_index(int(np.argmax(target)), lattice.shape)

    # one draw for every grade and trial, in the order of per-trial draws
    # (real part, then imaginary part, of each spinor)
    rng = default_rng(seed)
    draws = rng.standard_normal(
        (len(GRADING_GRADES), GRADING_TRIALS, 2) + shape)
    probes = np.zeros((len(GRADING_GRADES), GRADING_TRIALS + 1) + shape,
                      dtype=complex)
    probes[(slice(None), 0) + best_site + (0,)] = 1.0  # delta at the maximizer
    probes[:, 1:] = draws[:, :, 0] + 1j * draws[:, :, 1]
    aprobes = a[..., None] * probes
    axes = tuple(range(1, probes.ndim - 1))     # lattice and spinor axes
    w = lattice.site_weights()
    estimates = {}
    for n, phi, aphi in zip(GRADING_GRADES, probes, aprobes):
        wn = w * time_weight(t, 2 * n)
        wnm = w * time_weight(t, 2 * (n + m))
        num = np.sum(np.conj(aphi) * aphi * wnm[..., None], axis=axes).real
        den = np.sum(np.conj(phi) * phi * wn[..., None], axis=axes).real
        estimates[int(n)] = float(np.sqrt(num / den).max())
    vals = np.array(list(estimates.values()))
    spread = float((vals.max() - vals.min()) / max(vals.max(), MIN_SCALE))
    return {"weighted_norm": sup, "estimates": estimates, "spread": spread}


# ------------------------------------------------------------ state extension


def extend_state(points, elem: FilteredElement):
    """The evaluation states at `points` extended to `elem`.

    `points` is one point or a stack of them, its last axis holding the
    coordinates (t, x, ...); the result has the stack's shape.
    chi(a) = chi((1+T^2)^{-1/2})^{-degree} * chi(a0), which at a point p is
    the literal value (1+t_p^2)^{deg/2} a0(p).  If any state has vanishing
    chi((1+T^2)^{-1/2}), the extension is rejected.
    """
    coords = np.moveaxis(np.asarray(points, dtype=float), -1, 0)
    w = time_weight(coords[0], -1)
    if not np.all(np.isfinite(w) & (np.abs(w) >= STATE_WEIGHT_FLOOR)):
        raise ValueError("state has chi((1+T^2)^{-1/2}) = 0; extension "
                         "undefined (state must be ignored)")
    chi_a0 = np.asarray(elem.bounded_part(**dict(zip(AXIS_NAMES, coords))))
    return w ** (-elem.degree) * chi_a0


def well_definedness_check(elem_a, elem_b, lattice, states):
    """Two decompositions of the same function must extend identically.

    Raises if the decompositions do not agree as functions on the lattice;
    otherwise returns the max extension residual over the state panel, a
    stack of points.
    """
    va = elem_a.sample(lattice).values
    vb = elem_b.sample(lattice).values
    scale = max(float(np.max(np.abs(va))), MIN_SCALE)
    fun_dev = float(np.max(np.abs(va - vb)))
    if fun_dev > DECOMPOSITION_TOL * scale:
        raise ValueError("decompositions differ as functions "
                         "(max deviation %.3e)" % fun_dev)
    return float(np.max(np.abs(extend_state(states, elem_a)
                               - extend_state(states, elem_b)), initial=0.0))


# ----------------------------------------------------------------- toy algebra


def _central_panel(rng):
    """CENTRAL_TRIALS random (central a, any b, pure state) draws, in bulk.

    One draw per kind, real then imaginary part: the central fibers c of a,
    shape (N, K); b, shape (N, K, 2, 2); the sites of the states, shape (N,);
    and their vectors, shape (N, 2), normalised.
    """
    n, k = CENTRAL_TRIALS, TOY_SITES
    c = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    b = (rng.standard_normal((n, k, 2, 2))
         + 1j * rng.standard_normal((n, k, 2, 2)))
    sites = rng.integers(k, size=n)
    v = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return c, b, sites, v


def central_multiplicativity_check(seed=0):
    """chi(ab) = chi(a) chi(b) over CENTRAL_TRIALS random central a, b, states.

    The trials are one bulk panel (`_central_panel`); a state reads only its
    own site, so a, b and ab are taken there, and every chi is one batched
    product conj(v) x v.

    Also records the documented non-central counterexample (a = sigma3 fiber,
    b = sigma1, angled state), which must violate multiplicativity.
    """
    c, b, sites, v = _central_panel(default_rng(seed))
    trial = np.arange(CENTRAL_TRIALS)
    a = c[trial, sites, None, None] * np.eye(2)     # each a at its state's site
    b = b[trial, sites]
    ab = np.einsum("nij,njl->nil", a, b)

    def chi(x):             # conj(v) x v, for every trial at once
        return (v.conj()[:, None, :] @ x @ v[:, :, None])[:, 0, 0]

    worst = float(np.max(np.abs(chi(ab) - chi(a) * chi(b))))

    # explicit non-central witness, at the one site its state reads
    a, b = SIGMA3, SIGMA1
    alpha = np.pi / 8.0
    v = np.array([np.cos(alpha), np.sin(alpha)], dtype=complex)
    ab = a @ b
    violation = abs(v.conj() @ ab @ v - (v.conj() @ a @ v) * (v.conj() @ b @ v))
    return {
        "trials": CENTRAL_TRIALS,
        "max_central_residual": worst,
        "counterexample_residual": float(violation),  # for non-central a
        "counterexample": {
            "a": "sigma3 fiber (non-central)",
            "b": "sigma1 fiber",
            "state": "site 0, vector (cos pi/8, sin pi/8)",
            "chi_ab": 0.0,
            "chi_a_chi_b": float((np.cos(2 * alpha) * np.sin(2 * alpha)).real),
        },
    }


# ----------------------------------------------------------------- suite


def _random_element(rng, degree):
    """c0*sin(t) + c1*cos(x) + c2 with c uniform in [-2, 2), at `degree`.

    The bounded part is a closure, not a parsed text.  The label is the
    expression text; `%r` round-trips the floats, so it parses to a tree that
    evaluates to the same values.
    """
    c = c0, c1, c2 = tuple(float(v) for v in rng.uniform(-2.0, 2.0, size=3))
    return FilteredElement(
        degree, lambda **e: c0 * np.sin(e["t"]) + c1 * np.cos(e["x"]) + c2,
        "%r*sin(t) + %r*cos(x) + %r" % c)


def run_filtration_suite(seed=0):
    """All filtered-algebra checks; returns (checks, payload).

    The payload holds every measured quantity; its "passed" is all checks.
    """
    lat = Lattice(((-8.0, 8.0), (-2.0, 2.0)), (65, 5), boundary="clamped")
    rng = default_rng(seed)

    t_elem = FilteredElement.time_element()
    tnorm = weighted_norm(t_elem, -1, lat)
    grading = operator_norm_grading_check(t_elem, lat, seed=seed)

    # running maxima by np.maximum, which keeps a NaN residual
    worst_sub = -np.inf
    for _ in range(20):
        a = _random_element(rng, int(rng.integers(-2, 3)))
        b = _random_element(rng, int(rng.integers(-2, 3)))
        worst_sub = np.maximum(worst_sub, submultiplicativity_residual(a, b, lat))

    worst_well = 0.0
    states = rng.uniform(-5.0, 5.0, size=(6, 2))
    for _ in range(20):
        a = _random_element(rng, int(rng.integers(-1, 3)))
        b = a.to_degree(a.degree - int(rng.integers(1, 3)))
        worst_well = np.maximum(worst_well,
                                well_definedness_check(a, b, lat, states))

    central = central_multiplicativity_check(seed=seed)
    try:
        extend_state((float("inf"), 0.0), t_elem)
        unrejected = 1          # degenerate states that extend without raising
    except ValueError:
        unrejected = 0

    estimates = list(grading["estimates"].values())
    checks = (
        Check("time element is a contraction", tnorm, "<", TIME_NORM_BOUND),
        Check("operator norm independent of grade", grading["spread"], "<=",
              NORM_SPREAD_TOL),
        Check("operator norm estimates below sup norm",
              np.max(estimates) / grading["weighted_norm"] - 1.0, "<=",
              NORM_BOUND_TOL),
        Check("operator norm estimates reach sup norm",
              np.min(estimates) / grading["weighted_norm"], ">=", NORM_APPROACH),
        Check("weighted norms submultiplicative", worst_sub, "<=", SUBMULT_TOL),
        Check("state extension well defined", worst_well, "<=",
              WELL_DEFINED_TOL),
        Check("multiplicative on central elements",
              central["max_central_residual"], "<=", CENTRAL_TOL),
        Check("non-central counterexample violates",
              central["counterexample_residual"], ">", COUNTEREXAMPLE_FLOOR),
        Check("degenerate state rejected", unrejected, "<=", 0),
    )
    payload = {
        "time_element_norm": float(tnorm),
        "grading": grading,
        "worst_submultiplicativity_slack": float(worst_sub),
        "worst_well_definedness": float(worst_well),
        "central_multiplicativity": central,
        "seed": seed,
        **verdict(checks),
    }
    return checks, payload
