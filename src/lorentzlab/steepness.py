"""Steepness certificates for candidate distance functions.

A function f is steep when the per-site constraint matrix

    M(x) = [D,T] ( -i gamma^mu e^mu (d_mu f)(x) + i gamma_ch ),

gamma_ch the grading of the gamma representation, is positive semidefinite
everywhere (matrix mode), equivalently when

    g(grad f, grad f) = -(d_t f)^2 / u + sum_i (d_i f)^2  <=  -1
    and  d_t f > 0                                           (scalar mode).

M is Hermitian by construction (the Hermiticity residual is still measured
and reported).  For a constant gradient (a, b) the spectrum is
a/u +- sqrt((1+|b|^2)/u), which makes the two criteria exactly equivalent;
`equivalence_scan` drives both routes independently over seeded random draws.

Each route is one function of gradient values: `matrix_margins` builds M
and returns its margins, `scalar_margins` the scalar ones.  The
certificate `is_steep_matrix(f, D)` feeds the matrix route the stencil
gradients of f and the lapse u of D, kept on D's stored sites and
broadcast against the gradients, and `equivalence_scan` feeds both routes
every constant-gradient draw at once, at u = 1.

Margins: matrix mode reports the minimal eigenvalue of M (0 on the exactly
steep boundary), scalar mode reports -(g(grad f, grad f) + 1).  Steep means
margin >= -EIG_TOL with, in scalar mode, the additional orientation d_t f > 0;
a site whose margin is NaN fails.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .checks import Check, verdict
from .clifford import build_gamma, require_valid
from .dirac import DiracOperator, gradient_symbol
from .lattice import ScalarField, gradient

EIG_TOL = 1e-9


@dataclass
class SteepnessReport:
    steep: bool
    sites_failed: int
    worst_margin: float
    hermiticity_residual: float


def matrix_margins(grads, u, rep):
    """Minimal eigenvalue of M at each point, and the Hermiticity residual of M.

    M = [D,T] (-i c(df) + i gamma_ch) is built from gradient values: grads
    holds one array of d_mu f per axis and u the lapse, broadcast together;
    [D,T] is the symbol of the exact gradient dT = dt, and gamma_ch is
    rep.grading.  A rep without a grading, or one that fails
    `check_clifford`, is refused.
    """
    if rep.grading is None:
        raise ValueError("the %d-dimensional gamma representation has no "
                         "grading" % rep.dimension)
    require_valid(rep)
    k = gradient_symbol(rep, [1.0] + [0.0] * (len(grads) - 1), u)
    m = np.einsum("...ab,...bc->...ac", k,
                  gradient_symbol(rep, grads, u) + 1j * rep.grading)
    mh = np.conj(np.swapaxes(m, -1, -2))
    herm = float(np.abs(m - mh).max(initial=0.0))
    return np.linalg.eigvalsh(0.5 * (m + mh))[..., 0], herm


def scalar_margins(grads, u):
    """-(g(grad f, grad f) + 1) and the orientation d_t f > 0 at each point."""
    g = -(grads[0] ** 2) / u
    for gi in grads[1:]:
        g = g + gi ** 2
    return -(g + 1.0), grads[0] > 0


def _stencil_gradients(f, D):
    """Stencil gradients of f, which must live on the lattice of D."""
    if f.lattice != D.lattice:
        raise ValueError("candidate lives on a different lattice")
    return [gradient(f, axis).values for axis in range(f.lattice.dimension)]


def is_steep_matrix(f: ScalarField, D: DiracOperator):
    margins, herm = matrix_margins(_stencil_gradients(f, D), D.u, D.rep)
    failed = int(np.count_nonzero(~(margins >= -EIG_TOL)))
    return SteepnessReport(
        steep=bool(failed == 0),
        sites_failed=failed,
        worst_margin=float(margins.min()),
        hermiticity_residual=herm,
    )


def equivalence_scan(samples, seed, dimension=2):
    """Matrix vs scalar verdicts on random constant-gradient linear functions.

    Linear f = a t + b.x + c has a site-independent gradient, so each draw is
    decided by one constraint matrix and one scalar inequality, evaluated
    independently; all draws go through `matrix_margins` in one batch.
    Returns (checks, payload): every draw must agree, and the payload lists
    the draws that do not.
    """
    low = np.r_[-2.5, np.full(dimension - 1, -1.5)]
    grads = default_rng(seed).uniform(low, -low, size=(samples, dimension))
    m_margin, _ = matrix_margins(grads.T, 1.0, build_gamma(dimension))
    s_margin, oriented = scalar_margins(grads.T, 1.0)
    m_steep = m_margin >= -EIG_TOL
    agree = m_steep == ((s_margin >= -EIG_TOL) & oriented)
    disagreements = [{"draw": int(i), "gradient": grads[i].tolist(),
                      "matrix_margin": float(m_margin[i]),
                      "scalar_margin": float(s_margin[i]),
                      "oriented": bool(oriented[i])}
                     for i in np.flatnonzero(~agree)]
    agreements = int(agree.sum())
    checks = (Check("steepness routes agree", len(disagreements), "<=", 0),)
    return checks, {
        "samples": samples,
        "dimension": dimension,
        "agreements": agreements,
        "agreement_rate": agreements / samples if samples else 1.0,
        "steep_count": int(np.sum(m_steep & agree)),
        "disagreements": disagreements,
        **verdict(checks),
    }
