"""Lattice Dirac operators and the temporal-axiom checks.

The operator is D = -i gamma^mu e_mu d_mu with a flat spatial frame and an
optional conformal lapse u(t) > 0 entering through e^0 = u^{-1/2}:

    D phi = -i [ gamma^0 u^{-1/2} d_t + gamma^i d_i ] phi .

For the metric -u(t) dt^2 + dx^2 the spin connection vanishes (u depends on t
only), and the metric measure is sqrt(u) * cell weight; dense adjoints are
taken with respect to that weighted inner product.

The temporal element T is the time coordinate *with its analytic gradient*
dT = dt: its commutator symbol [D,T](x) = -i gamma^0 u^{-1/2}(x) is exact per
site.  (Routing T through the difference stencil instead would smear the
commutator into an averaging operator and, on a periodic lattice, corrupt the
wrap rows, since t itself is not periodic.)  The axiom quantity is
u_ax = [D,T]^2 = 1/u per site; reports carry u_ax, u and the reciprocal
residual so both conventions stay visible.
"""

from dataclasses import dataclass, field

import numpy as np

from .checks import Check
from .clifford import GammaRep, build_gamma, fundamental_symmetry, max_abs
from .lattice import Lattice, ScalarField, SpinorField, gradient

DENSE_LIMIT = 4096
SITE_LIMIT = 65536       # lattice sites any command may allocate fields on

HERMITICITY_TOL = 1e-12
U_SQUARE_TOL = 1e-13
RECIPROCAL_TOL = 1e-12
SKEW_TOL = 1e-12
KREIN_TOL = 1e-12
COMMUTE_TOL = 1e-13
ELLIPTIC_EIG_FLOOR = -1e-10
ELLIPTIC_HERM_TOL = 1e-12


@dataclass(frozen=True)
class TemporalElement:
    """The time coordinate as an algebra element with exact gradient dT = dt."""

    lattice: Lattice

    @property
    def values(self):
        return self.lattice.coordinate_array(0)


@dataclass
class MatrixField:
    """A per-site matrix, e.g. a commutator symbol -i c(df)."""

    lattice: Lattice
    values: np.ndarray  # shape lattice.shape + (s, s)

    def apply(self, psi):
        out = np.einsum("...ab,...b->...a", self.values, psi.values)
        return SpinorField(self.lattice, out)

    def hermiticity_residual(self):
        return max_abs(self.values - np.conj(np.swapaxes(self.values, -1, -2)))


class DiracOperator:
    def __init__(self, rep: GammaRep, lattice: Lattice, conformal_u=None):
        if rep.dimension != lattice.dimension:
            raise ValueError("gamma rep is %d-dimensional but lattice is %d-dimensional"
                             % (rep.dimension, lattice.dimension))
        self.rep = rep
        self.lattice = lattice
        if conformal_u is None:
            u = np.ones(lattice.shape)
        else:
            u = np.asarray(conformal_u.values if isinstance(conformal_u, ScalarField)
                           else conformal_u, dtype=float)
            u = np.broadcast_to(u, lattice.shape).copy()
        if np.any(u <= 0):
            raise ValueError("conformal factor u must be strictly positive")
        for axis in range(1, lattice.dimension):
            spread = np.max(np.ptp(u, axis=axis))
            if spread > 1e-12 * max(1.0, np.max(np.abs(u))):
                raise ValueError("conformal factor u must depend on t only "
                                 "(axis %d spread %.3e)" % (axis, spread))
        self.u = u

    @property
    def spinor_dim(self):
        return self.rep.matrix_size

    @property
    def dense_dim(self):
        return self.lattice.site_count * self.spinor_dim

    def vielbein(self, axis):
        """e^mu diagonal factor: u^{-1/2} for time, 1 for space."""
        if axis == 0:
            return 1.0 / np.sqrt(self.u)
        return np.ones(self.lattice.shape)

    def apply(self, psi: SpinorField) -> SpinorField:
        if psi.lattice != self.lattice:
            raise ValueError("spinor lives on a different lattice")
        out = np.zeros_like(psi.values)
        for mu in range(self.lattice.dimension):
            dpsi = gradient(psi, mu).values
            term = np.einsum("ab,...b->...a", self.rep.matrices[mu], dpsi)
            out += self.vielbein(mu)[..., None] * term
        return SpinorField(self.lattice, -1j * out)

    def commutator_with_scalar(self, f: ScalarField) -> MatrixField:
        """Symbol of [D, f]: the per-site matrix -i sum_mu e^mu gamma^mu (d_mu f).

        Uses the lattice difference stencil for df; agrees with the operator
        route D(f psi) - f D(psi) to stencil order.
        """
        if f.lattice != self.lattice:
            raise ValueError("scalar lives on a different lattice")
        s = self.spinor_dim
        out = np.zeros(self.lattice.shape + (s, s), dtype=complex)
        for mu in range(self.lattice.dimension):
            df = gradient(f, mu).values * self.vielbein(mu)
            out += df[..., None, None] * self.rep.matrices[mu]
        return MatrixField(self.lattice, -1j * out)

    def temporal_commutator(self, T: TemporalElement = None) -> MatrixField:
        """[D, T] at symbol level: -i gamma^0 u^{-1/2}(x), exact per site."""
        if T is not None and T.lattice != self.lattice:
            raise ValueError("temporal element lives on a different lattice")
        s = self.spinor_dim
        coeff = self.vielbein(0)
        out = coeff[..., None, None] * (-1j * self.rep.matrices[0])
        return MatrixField(self.lattice, np.broadcast_to(
            out, self.lattice.shape + (s, s)).copy())

    # ------------------------------------------------------------- dense ops

    def dense_matrix(self):
        """Dense matrix of D in row-major (site, spinor) order."""
        n = self.dense_dim
        if n > DENSE_LIMIT:
            raise ValueError("dense matrix would be %d^2; limit is %d^2 "
                             "(use a coarser lattice)" % (n, DENSE_LIMIT))
        s = self.spinor_dim
        out = np.zeros((n, n), dtype=complex)
        basis = np.zeros(self.lattice.shape + (s,), dtype=complex)
        flat = basis.reshape(-1)
        for col in range(n):
            flat[col] = 1.0
            out[:, col] = self.apply(SpinorField(self.lattice, basis)).values.reshape(-1)
            flat[col] = 0.0
        return out

    def measure_weights(self):
        """Per-site metric measure sqrt(u) * quadrature weight."""
        return self.lattice.site_weights() * np.sqrt(self.u)

    def weighted_adjoint(self, a):
        """Adjoint of a dense matrix w.r.t. the metric measure inner product."""
        w = np.repeat(self.measure_weights().reshape(-1), self.spinor_dim)
        return (a.conj().T * w[None, :]) / w[:, None]


def random_spinor(lattice, spinor_dim, rng):
    v = rng.standard_normal(lattice.shape + (spinor_dim,)) \
        + 1j * rng.standard_normal(lattice.shape + (spinor_dim,))
    return SpinorField(lattice, v)


@dataclass
class AxiomReport:
    hermiticity_residual: float
    u_square_deviation: float      # max per-site distance of [D,T]^2 from c(x) 1
    u_ax_min: float
    u_ax_max: float
    u_metric_min: float
    u_metric_max: float
    reciprocal_residual: float     # max |u_ax * u_metric - 1|
    skew_residual: float
    krein_skew_residual: float     # || (J D)^+ + J D ||
    krein_equiv_residual: float    # || D^+ + J D J ||
    commute_residual: float
    elliptic_hermiticity: float = None
    elliptic_min_eigenvalue: float = None
    adjoints_exact: bool = True    # False on clamped lattices
    notes: tuple = ()
    tolerances: dict = field(default_factory=dict)

    def to_dict(self):
        return {**vars(self), "notes": list(self.notes),
                "tolerances": dict(self.tolerances)}

    @property
    def checks(self):
        checks = [
            Check("temporal commutator hermitian",
                  self.hermiticity_residual <= HERMITICITY_TOL,
                  "residual %.3e" % self.hermiticity_residual),
            Check("[D,T]^2 scalar and positive",
                  self.u_square_deviation <= U_SQUARE_TOL and self.u_ax_min > 0,
                  "deviation %.3e, range [%.6g, %.6g]"
                  % (self.u_square_deviation, self.u_ax_min, self.u_ax_max)),
            Check("u_ax * u_metric = 1",
                  self.reciprocal_residual <= RECIPROCAL_TOL,
                  "residual %.3e" % self.reciprocal_residual),
            Check("[D,T] D skew-adjoint", self.skew_residual <= SKEW_TOL,
                  "residual %.3e" % self.skew_residual),
            Check("Krein skewness (both forms)",
                  self.krein_skew_residual <= KREIN_TOL
                  and self.krein_equiv_residual <= KREIN_TOL,
                  "residuals %.3e / %.3e"
                  % (self.krein_skew_residual, self.krein_equiv_residual)),
            Check("[D,T] commutes with functions",
                  self.commute_residual <= COMMUTE_TOL,
                  "residual %.3e" % self.commute_residual),
        ]
        if self.elliptic_min_eigenvalue is not None:
            checks.append(Check(
                "<D>^2 hermitian and non-negative",
                self.elliptic_hermiticity <= ELLIPTIC_HERM_TOL
                and self.elliptic_min_eigenvalue >= ELLIPTIC_EIG_FLOOR,
                "min eigenvalue %.3e" % self.elliptic_min_eigenvalue))
        return tuple(checks)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


# Per-site (s, s) blocks act on a dense (site, spinor) matrix as a batched
# product, never as an n x n block-diagonal matrix.  Each block row of
# K = -i gamma^0 u^{-1/2} and J = i gamma^0 has one nonzero, so the result
# equals the dense product entry for entry.

def _blocks_times(blocks, a):
    """blockdiag(blocks) @ a for per-site blocks of shape (..., s, s)."""
    s = blocks.shape[-1]
    b = blocks.reshape(-1, s, s)
    return np.einsum("kab,kbn->kan", b, a.reshape(len(b), s, -1)).reshape(a.shape)


def _times_blocks(a, blocks):
    """a @ blockdiag(blocks) for per-site blocks of shape (..., s, s)."""
    s = blocks.shape[-1]
    b = blocks.reshape(-1, s, s)
    return np.einsum("ika,kab->ikb", a.reshape(-1, len(b), s), b).reshape(a.shape)


def _elliptic_square(d, k):
    """-1/2 (D K D K + K D K D) from dense D and the blocks of K = [D,T]."""
    dk = _times_blocks(d, k)
    kd = _blocks_times(k, d)
    return -0.5 * (dk @ dk + kd @ kd)


def elliptic_square(D: DiracOperator, T: TemporalElement = None):
    """<D>^2 = -1/2 (D K D K + K D K D) with K = [D,T], as a dense matrix."""
    return _elliptic_square(D.dense_matrix(), D.temporal_commutator(T).values)


def check_temporal_axioms(D: DiracOperator, T: TemporalElement = None,
                          samples=3, seed=0, include_elliptic=True):
    """Run the axiom residual suite; dense pieces require <= DENSE_LIMIT dims."""
    lat = D.lattice
    s = D.spinor_dim
    K = D.temporal_commutator(T)

    herm = K.hermiticity_residual()

    ksq = np.einsum("...ab,...bc->...ac", K.values, K.values)
    c = np.einsum("...aa", ksq).real / s
    eye = np.eye(s)
    dev = max_abs(ksq - c[..., None, None] * eye)
    recip = float(np.max(np.abs(c * D.u - 1.0)))

    dd = D.dense_matrix()
    a = _blocks_times(K.values, dd)
    skew = max_abs(D.weighted_adjoint(a) + a)
    del a

    # Krein equivalence both ways with J = i gamma^0 (normalized symmetry):
    # J D skew-Hermitian, and D^dagger = -J D J.
    j = np.broadcast_to(fundamental_symmetry(D.rep), K.values.shape)
    jd = _blocks_times(j, dd)
    krein_skew = max_abs(D.weighted_adjoint(jd) + jd)
    krein_equiv = max_abs(D.weighted_adjoint(dd) + _times_blocks(jd, j))
    del jd

    rng = np.random.default_rng(seed)
    commute = 0.0
    for _ in range(samples):
        f = rng.standard_normal(lat.shape)
        psi = random_spinor(lat, s, rng)
        lhs = K.apply(SpinorField(lat, f[..., None] * psi.values)).values
        rhs = f[..., None] * K.apply(psi).values
        commute = max(commute, float(np.abs(lhs - rhs).max()))

    ell_herm = ell_min = None
    if include_elliptic:
        m = _elliptic_square(dd, K.values)
        ell_herm = max_abs(m - m.conj().T)
        ell_min = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min())

    notes = []
    if lat.boundary != "periodic":
        notes.append("clamped lattice: difference adjoints hold only up to "
                     "boundary terms; skew residuals are approximate")
    uvar = float(np.ptp(D.u))
    if uvar > 1e-12:
        notes.append("non-constant u(t): continuum skew-self-adjointness of "
                     "[D,T]D acquires a bounded defect ~ d(u^{-1/2}); residual "
                     "reported honestly")
    notes.append("u_ax = [D,T]^2 = -g^00 = 1/u_metric; both conventions reported")

    return AxiomReport(
        hermiticity_residual=herm,
        u_square_deviation=dev,
        u_ax_min=float(c.min()),
        u_ax_max=float(c.max()),
        u_metric_min=float(D.u.min()),
        u_metric_max=float(D.u.max()),
        reciprocal_residual=recip,
        skew_residual=skew,
        krein_skew_residual=krein_skew,
        krein_equiv_residual=krein_equiv,
        commute_residual=commute,
        elliptic_hermiticity=ell_herm,
        elliptic_min_eigenvalue=ell_min,
        adjoints_exact=(lat.boundary == "periodic" and uvar <= 1e-12),
        notes=tuple(notes),
        tolerances={
            "hermiticity": HERMITICITY_TOL,
            "u_square": U_SQUARE_TOL,
            "skew": SKEW_TOL,
            "krein": KREIN_TOL,
            "commute": COMMUTE_TOL,
            "elliptic_floor": ELLIPTIC_EIG_FLOOR,
        },
    )


def flat_operator(dimension, points, box=None, boundary="periodic", u=None):
    """Convenience constructor: cubic box (default side = points, h = 1)."""
    if box is None:
        extents = tuple((0.0, float(p)) for p in
                        (points if isinstance(points, (tuple, list))
                         else [points] * dimension))
    else:
        extents = tuple(box)
    pts = tuple(points) if isinstance(points, (tuple, list)) else (points,) * dimension
    lat = Lattice(extents, pts, boundary)
    rep = build_gamma(dimension)
    ufield = None if u is None else ScalarField.from_expression(lat, u) \
        if isinstance(u, str) else u
    return DiracOperator(rep, lat, ufield)
