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
exercised on the toy algebra C^K (x) M2 (block matrices over K sites with
fixed t-values), where T is central by construction and chi(ab) =
chi(a) chi(b) holds for central a and any pure state.
"""

from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.random import default_rng

from . import expressions
from .checks import Check
from .lattice import Lattice, ScalarField, SpinorField, inner_product

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


# --------------------------------------------------------------- elements


@dataclass(frozen=True)
class FilteredElement:
    """a = (1+T^2)^{degree/2} * bounded_part."""

    degree: int
    bounded_part: object          # callable(**coords) -> ndarray
    label: str = ""

    @classmethod
    def from_expression(cls, text, degree):
        _, fn = expressions.compile_expression(text)
        return cls(degree, fn, text)

    @classmethod
    def time_element(cls):
        return cls(1, lambda **c: c["t"] / np.sqrt(1.0 + c["t"] ** 2), "T")

    def bounded_values(self, lattice: Lattice):
        vals = self.bounded_part(**lattice.environment())
        return np.broadcast_to(np.asarray(vals), lattice.shape)

    def sample(self, lattice: Lattice) -> ScalarField:
        t = lattice.coordinate_array(0)
        vals = (1.0 + t ** 2) ** (self.degree / 2.0) * self.bounded_values(lattice)
        return ScalarField(lattice, np.array(vals))

    def value_at(self, point, axis_names=None):
        names = axis_names if axis_names is not None else ("t", "x", "y", "z")[: len(point)]
        env = {name: np.asarray(float(v)) for name, v in zip(names, point)}
        t = float(point[0])
        return complex((1.0 + t ** 2) ** (self.degree / 2.0)
                       * complex(np.asarray(self.bounded_part(**env))))

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
        shift = (self.degree - new_degree) / 2.0
        a0 = self.bounded_part
        return FilteredElement(
            new_degree,
            lambda **c: (1.0 + c["t"] ** 2) ** shift * np.asarray(a0(**c)),
            label=self.label,
        )


def weighted_norm(elem: FilteredElement, m, lattice: Lattice):
    """sup over sites of |(1+t^2)^{m/2} a(x)|."""
    t = lattice.coordinate_array(0)
    a = elem.sample(lattice).values
    return float(np.max(np.abs((1.0 + t ** 2) ** (m / 2.0) * a)))


def submultiplicativity_residual(a, b, lattice):
    """Relative slack of ||ab||_{ma+mb} <= ||a||_ma ||b||_mb (negative = holds).

    Each norm is the natural one of its element, m = -degree.
    """
    m_a, m_b = -a.degree, -b.degree
    prod = a.multiply(b)
    lhs = weighted_norm(prod, m_a + m_b, lattice)
    rhs = weighted_norm(a, m_a, lattice) * weighted_norm(b, m_b, lattice)
    scale = max(rhs, 1e-30)
    return (lhs - rhs) / scale


# ------------------------------------------------------ operator-norm grading


@dataclass
class GradingReport:
    weighted_norm: float
    estimates: dict                 # n -> operator norm estimate on H_n
    spread: float                   # relative spread of estimates across n
    bound_ok: bool
    approach_ok: bool               # estimates reach NORM_APPROACH of the sup norm


def operator_norm_grading_check(elem: FilteredElement, lattice: Lattice, seed=0):
    """Multiplication by `elem` as an operator H_n -> H_{n+m}, m = -degree.

    The estimate on each H_n, n in GRADING_GRADES, is the max Rayleigh ratio
    over GRADING_TRIALS random spinors plus the site-delta at the achieving
    site of |(1+t^2)^{m/2} a|; it must stay below the weighted sup norm
    (within rounding) and reach it, and be independent of n.
    """
    m = -elem.degree
    shape = lattice.shape + (GRADING_SPINOR_DIM,)
    t = lattice.coordinate_array(0)
    a = elem.sample(lattice).values
    sup = weighted_norm(elem, m, lattice)
    target = np.abs((1.0 + t ** 2) ** (m / 2.0) * a)
    best_site = np.unravel_index(int(np.argmax(target)), lattice.shape)

    rng = default_rng(seed)
    estimates = {}
    for n in GRADING_GRADES:
        wn = (1.0 + t ** 2) ** float(n)
        wnm = (1.0 + t ** 2) ** float(n + m)
        best = 0.0
        for k in range(GRADING_TRIALS + 1):
            if k == 0:
                vals = np.zeros(shape, dtype=complex)
                vals[best_site + (0,)] = 1.0        # delta at the maximizer
            else:
                vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            phi = SpinorField(lattice, vals)
            aphi = SpinorField(lattice, a[..., None] * vals)
            num = inner_product(aphi, aphi, weight=wnm).real
            den = inner_product(phi, phi, weight=wn).real
            best = max(best, np.sqrt(num / den))
        estimates[int(n)] = float(best)
    vals = np.array(list(estimates.values()))
    spread = float((vals.max() - vals.min()) / max(vals.max(), 1e-300))
    return GradingReport(
        weighted_norm=sup,
        estimates=estimates,
        spread=spread,
        bound_ok=bool(np.all(vals <= sup * (1.0 + NORM_BOUND_TOL))),
        approach_ok=bool(vals.min() >= NORM_APPROACH * sup),
    )


# ------------------------------------------------------------ state extension


@dataclass(frozen=True)
class EvaluationState:
    """Pure state = evaluation at a spacetime point."""

    point: tuple

    def weight_value(self):
        """chi((1+T^2)^{-1/2})."""
        t = float(self.point[0])
        return (1.0 + t * t) ** -0.5


def extend_state(state, elem: FilteredElement):
    """chi(a) = chi((1+T^2)^{-1/2})^{-degree} * chi(a0).

    For evaluation states this is the literal value (1+t_p^2)^{deg/2} a0(p).
    States with vanishing chi((1+T^2)^{-1/2}) are rejected.
    """
    if isinstance(state, (tuple, list, np.ndarray)):
        state = EvaluationState(tuple(float(v) for v in state))
    w = state.weight_value()
    if not np.isfinite(w) or abs(w) < STATE_WEIGHT_FLOOR:
        raise ValueError("state has chi((1+T^2)^{-1/2}) = 0; extension "
                         "undefined (state must be ignored)")
    names = ("t", "x", "y", "z")[: len(state.point)]
    env = {nm: np.asarray(v) for nm, v in zip(names, state.point)}
    chi_a0 = complex(np.asarray(elem.bounded_part(**env)))
    return w ** (-elem.degree) * chi_a0


def well_definedness_check(elem_a, elem_b, lattice, states):
    """Two decompositions of the same function must extend identically.

    Raises if the decompositions do not agree as functions on the lattice;
    otherwise returns the max extension residual over the state panel.
    """
    va = elem_a.sample(lattice).values
    vb = elem_b.sample(lattice).values
    scale = max(float(np.max(np.abs(va))), 1e-30)
    fun_dev = float(np.max(np.abs(va - vb)))
    if fun_dev > DECOMPOSITION_TOL * scale:
        raise ValueError("decompositions differ as functions "
                         "(max deviation %.3e)" % fun_dev)
    resid = 0.0
    for st in states:
        resid = max(resid, abs(extend_state(st, elem_a) - extend_state(st, elem_b)))
    return resid


# ----------------------------------------------------------------- toy algebra


@dataclass(frozen=True)
class ToyAlgebra:
    """C^K (x) M2: block-diagonal 2x2 matrices over K sites with t-values."""

    t_values: tuple

    @property
    def sites(self):
        return len(self.t_values)

    def time_element(self):
        return self.central_element(self.t_values)

    def central_element(self, fiber_values):
        """c_k times the 2x2 identity at site k; shape (sites, 2, 2)."""
        c = np.asarray(fiber_values)
        if c.shape != (self.sites,):
            raise ValueError("need one fiber value per site (%d), got shape %s"
                             % (self.sites, c.shape))
        return np.asarray(c[:, None, None] * np.eye(2), dtype=complex)

    def random_element(self, rng):
        return (rng.standard_normal((self.sites, 2, 2))
                + 1j * rng.standard_normal((self.sites, 2, 2)))


@dataclass(frozen=True)
class ToyState:
    """Pure state of C^K (x) M2: a site and a unit vector in C^2."""

    site: int
    vector: tuple

    def __call__(self, element):
        v = np.asarray(self.vector, dtype=complex)
        return complex(v.conj() @ np.asarray(element)[self.site] @ v)


def random_toy_state(algebra, rng):
    site = int(rng.integers(algebra.sites))
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = v / np.linalg.norm(v)
    return ToyState(site, tuple(v))


@dataclass
class CentralityReport:
    trials: int
    max_central_residual: float
    counterexample_residual: float   # observed violation for non-central a
    counterexample: dict = field(default_factory=dict)


def central_multiplicativity_check(algebra: ToyAlgebra, seed=0):
    """chi(ab) = chi(a) chi(b) over CENTRAL_TRIALS random central a, b, states.

    Also records the documented non-central counterexample (a = sigma3 fiber,
    b = sigma1, angled state), which must violate multiplicativity.
    """
    rng = default_rng(seed)
    worst = 0.0
    for _ in range(CENTRAL_TRIALS):
        c = rng.standard_normal(algebra.sites) + 1j * rng.standard_normal(algebra.sites)
        a = algebra.central_element(c)
        b = algebra.random_element(rng)
        chi = random_toy_state(algebra, rng)
        ab = np.einsum("kij,kjl->kil", a, b)
        worst = max(worst, abs(chi(ab) - chi(a) * chi(b)))

    # explicit non-central witness
    sigma3 = np.array([[1, 0], [0, -1]], dtype=complex)
    sigma1 = np.array([[0, 1], [1, 0]], dtype=complex)
    a = np.zeros((algebra.sites, 2, 2), dtype=complex)
    b = np.zeros((algebra.sites, 2, 2), dtype=complex)
    a[:] = sigma3
    b[:] = sigma1
    alpha = np.pi / 8.0
    chi = ToyState(0, (np.cos(alpha), np.sin(alpha)))
    ab = np.einsum("kij,kjl->kil", a, b)
    violation = abs(chi(ab) - chi(a) * chi(b))
    return CentralityReport(
        trials=CENTRAL_TRIALS,
        max_central_residual=worst,
        counterexample_residual=float(violation),
        counterexample={
            "a": "sigma3 fiber (non-central)",
            "b": "sigma1 fiber",
            "state": "site 0, vector (cos pi/8, sin pi/8)",
            "chi_ab": 0.0,
            "chi_a_chi_b": float((np.cos(2 * alpha) * np.sin(2 * alpha)).real),
        },
    )


# ----------------------------------------------------------------- suite


def run_filtration_suite(seed=0):
    """All filtered-algebra checks; returns (checks, payload).

    The payload holds every measured quantity; its "passed" is all checks.
    """
    lat = Lattice(((-8.0, 8.0), (-2.0, 2.0)), (65, 5), boundary="clamped")
    rng = default_rng(seed)

    t_elem = FilteredElement.time_element()
    tnorm = weighted_norm(t_elem, -1, lat)
    grading = operator_norm_grading_check(t_elem, lat, seed=seed)

    def random_element(degree):
        c = rng.uniform(-2.0, 2.0, size=3)
        text = "%r*sin(t) + %r*cos(x) + %r" % tuple(float(v) for v in c)
        return FilteredElement.from_expression(text, degree)

    worst_sub = -np.inf
    for _ in range(20):
        a = random_element(int(rng.integers(-2, 3)))
        b = random_element(int(rng.integers(-2, 3)))
        worst_sub = max(worst_sub, submultiplicativity_residual(a, b, lat))

    worst_well = 0.0
    states = [tuple(rng.uniform(-5.0, 5.0, size=2)) for _ in range(6)]
    for _ in range(20):
        a = random_element(int(rng.integers(-1, 3)))
        b = a.to_degree(a.degree - int(rng.integers(1, 3)))
        worst_well = max(worst_well, well_definedness_check(a, b, lat, states))

    toy = ToyAlgebra(tuple(np.linspace(-3.0, 3.0, 8)))
    central = central_multiplicativity_check(toy, seed=seed)
    try:
        extend_state((float("inf"), 0.0), t_elem)
        rejection_works = False
    except ValueError:
        rejection_works = True

    checks = (
        Check("time element is a contraction", tnorm < TIME_NORM_BOUND,
              "||T||_{-1} = %.12f" % tnorm),
        Check("operator norm independent of grade",
              grading.spread <= NORM_SPREAD_TOL
              and grading.bound_ok and grading.approach_ok,
              "spread %.3e" % grading.spread),
        Check("weighted norms submultiplicative", worst_sub <= SUBMULT_TOL,
              "worst relative slack %.3e" % worst_sub),
        Check("state extension well defined", worst_well <= WELL_DEFINED_TOL,
              "max extension deviation %.3e" % worst_well),
        Check("multiplicative on central elements",
              central.max_central_residual <= CENTRAL_TOL,
              "max residual %.3e over %d trials"
              % (central.max_central_residual, central.trials)),
        Check("non-central counterexample violates",
              central.counterexample_residual > COUNTEREXAMPLE_FLOOR,
              "violation %.6f" % central.counterexample_residual),
        Check("degenerate state rejected", rejection_works,
              "chi((1+T^2)^(-1/2)) = 0 raises"),
    )
    payload = {
        "time_element_norm": float(tnorm),
        "grading": asdict(grading),
        "worst_submultiplicativity_slack": float(worst_sub),
        "worst_well_definedness": float(worst_well),
        "central_multiplicativity": asdict(central),
        "rejection_guard": rejection_works,
        "seed": seed,
        "passed": all(c.passed for c in checks),
    }
    return checks, payload
