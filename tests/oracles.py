"""Reference formulas that more than one test module compares against.

None of these is library code: each rebuilds a quantity from its definition
so that a test can hold the library's own route to it.
"""

import numpy as np

from lorentzlab.clifford import GammaRep, max_abs


def krein_adjoint(a, j):
    """A+ = J A* J with A* the conjugate transpose."""
    return j @ a.conj().T @ j


def conjugated(rep, unitary):
    """`rep` with every matrix replaced by U g U^dagger."""
    u = np.asarray(unitary, dtype=complex)
    mats = tuple(u @ g @ u.conj().T for g in rep.matrices)
    return GammaRep(rep.dimension, mats, rep.metric_signs)


def clifford_residuals(rep):
    """Per pair mu <= nu, |{g^mu, g^nu} - 2 g^{mu nu}|; per index, the
    distance of g^mu from anti-Hermitian (metric sign -1) or Hermitian."""
    eye = np.eye(rep.matrix_size)
    anti = {}
    for mu in range(rep.dimension):
        for nu in range(mu, rep.dimension):
            g, h = rep.matrices[mu], rep.matrices[nu]
            target = 2.0 * rep.metric_signs[mu] * eye if mu == nu else 0.0
            anti[(mu, nu)] = max_abs(g @ h + h @ g - target)
    herm = tuple(max_abs(g - sign * g.conj().T) for g, sign
                 in zip(rep.matrices, rep.metric_signs))
    return anti, herm


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
