"""Reference formulas that more than one test module compares against.

None of these is library code: each rebuilds a quantity from its definition
so that a test can hold the library's own route to it.
"""

from dataclasses import dataclass

import numpy as np

from lorentzlab.clifford import GammaRep, max_abs
from lorentzlab.steepness import EIG_TOL, _stencil_gradients, scalar_margins


def fundamental_symmetry(rep):
    """J = i gamma^0, Hermitian with J^2 = 1 for a valid rep."""
    return 1j * rep.matrices[0]


def krein_adjoint(a, j):
    """A+ = J A* J with A* the conjugate transpose."""
    return j @ a.conj().T @ j


def conjugated(rep, unitary):
    """`rep` with every matrix, and its grading, replaced by U g U^dagger."""
    u = np.asarray(unitary, dtype=complex)
    mats = tuple(u @ g @ u.conj().T for g in rep.matrices)
    grading = None if rep.grading is None else u @ rep.grading @ u.conj().T
    return GammaRep(rep.dimension, mats, rep.metric_signs, grading)


def clifford_residuals(rep):
    """Per pair mu <= nu, |{g^mu, g^nu} - 2 g^{mu nu}|; per index, the
    distance of g^mu from anti-Hermitian (metric sign -1) or Hermitian.

    A stored grading is index n, of metric sign +1: its pairs (mu, n) hold
    its anticommutators and its square, and herm[n] its Hermiticity.
    """
    mats, signs = list(rep.matrices), list(rep.metric_signs)
    if rep.grading is not None:
        mats.append(rep.grading)
        signs.append(1)
    eye = np.eye(rep.matrix_size)
    anti = {}
    for mu in range(len(mats)):
        for nu in range(mu, len(mats)):
            g, h = mats[mu], mats[nu]
            target = 2.0 * signs[mu] * eye if mu == nu else 0.0
            anti[(mu, nu)] = max_abs(g @ h + h @ g - target)
    herm = tuple(max_abs(g - sign * g.conj().T) for g, sign
                 in zip(mats, signs))
    return anti, herm


@dataclass
class ScalarSteepness:
    steep: bool
    sites_failed: int
    worst_margin: float
    orientation_ok: bool         # d_t f > 0 at every site


def is_steep_scalar(f, D):
    """The scalar route on stencil gradients: the cross-check of
    `is_steep_matrix`.  A site passes when -(g(df, df) + 1) >= -EIG_TOL
    and d_t f > 0, with the lapse u of D."""
    margins, oriented = scalar_margins(_stencil_gradients(f, D), D.u)
    failed = int(np.count_nonzero(~((margins >= -EIG_TOL) & oriented)))
    return ScalarSteepness(steep=bool(failed == 0), sites_failed=failed,
                           worst_margin=float(margins.min()),
                           orientation_ok=bool(np.all(oriented)))


def inner_product(psi, phi, weight=None):
    """<psi, phi> = sum over sites and spinor components of conj(psi) phi w.

    psi and phi are SpinorFields on one lattice.  `weight` is an optional
    per-site real array (e.g. a metric measure or a (1+t^2)^n factor)
    multiplying the quadrature weights.
    """
    if psi.lattice is not phi.lattice and psi.lattice != phi.lattice:
        raise ValueError("fields live on different lattices")
    w = psi.lattice.site_weights()
    if weight is not None:
        w = w * weight
    return complex(np.sum(np.conj(psi.values) * phi.values * w[..., None]))


def flat_spectrum(points, spacings, spinor_dim):
    """Eigenvalues of the flat (u = 1) periodic <D>^2, per space-time momentum.

    On the plane wave exp(i k.x) eta with k_mu = 2 pi n_mu / (N_mu h_mu),
    the central difference d_mu is i a_mu, a_mu = sin(2 pi n_mu / N_mu) / h_mu,
    so D = -i gamma^mu d_mu acts as gamma^0 a_0 + S with S = gamma^i a_i.
    With K = [D,T] = -i gamma^0, (gamma^0)^2 = -1, (gamma^i)^2 = 1, and
    gamma^0 anticommuting with every gamma^i (so gamma^0 S = -S gamma^0 and
    (S gamma^0)^2 = -S^2 (gamma^0)^2 = S^2 = sum_i a_i^2, the cross terms
    of S^2 cancelling):

        D K = i a_0 - i S gamma^0,        K D = i a_0 + i S gamma^0,
        (D K)^2 = -a_0^2 + 2 a_0 S gamma^0 - S^2,
        (K D)^2 = -a_0^2 - 2 a_0 S gamma^0 - S^2,

    and <D>^2 = -1/2 ((D K)^2 + (K D)^2) = sum_mu a_mu^2 times the identity:
    the cross terms a_0 S gamma^0 cancel.  Returns shape (prod(points),
    spinor_dim): one row per space-time momentum (n_0, n_1, ...), in
    row-major order over all the axes, holding the spinor_dim equal
    eigenvalues of that momentum's s x s block.
    """
    terms = [np.sin(2.0 * np.pi * np.arange(n) / n) ** 2 / h ** 2
             for n, h in zip(points, spacings)]
    values = np.zeros(())
    for term in terms:
        values = np.add.outer(values, term)
    return np.repeat(values.reshape(-1, 1), spinor_dim, axis=1)


def constant_lapse_spectrum(points, spacings, spinor_dim, c):
    """Eigenvalues of the periodic <D>^2 under the constant lapse u = c,
    per space-time momentum, as `flat_spectrum` orders them.

    With u = c, D = -i (c^(-1/2) gamma^0 d_t + gamma^i d_i) and K = [D,T] =
    c^(-1/2) K_1, K_1 = -i gamma^0 the flat K.  On the plane wave of
    `flat_spectrum`, D acts as gamma^0 c^(-1/2) a_0 + S: the flat D with
    a_0 -> c^(-1/2) a_0, which is the flat D on the time spacing sqrt(c) h_t
    (a_0 = sin(2 pi n_0 / N_0) / h_t).  Each of D K D K and K D K D holds K
    twice, so

        <D>^2 = -1/2 (D K D K + K D K D)
              = c^(-1) (-1/2) (D K_1 D K_1 + K_1 D K_1 D)
              = c^(-1) (a_0^2 / c + sum_i a_i^2),

    the flat spectrum on spacings (sqrt(c) h_t, h_x, ...) divided by c:
    the lapse rescales time by sqrt(c) and K by c^(-1/2).
    """
    scaled = (np.sqrt(c) * spacings[0],) + tuple(spacings[1:])
    return flat_spectrum(points, scaled, spinor_dim) / c
