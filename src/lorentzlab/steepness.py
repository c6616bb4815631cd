"""Steepness certificates for candidate distance functions.

A function f is steep when the per-site constraint matrix

    M(x) = [D,T] ( -i gamma^mu e^mu (d_mu f)(x) + i gamma_ch )

is positive semidefinite everywhere (matrix mode), equivalently when

    g(grad f, grad f) = -(d_t f)^2 / u + sum_i (d_i f)^2  <=  -1
    and  d_t f > 0                                           (scalar mode).

M is Hermitian by construction (the Hermiticity residual is still measured
and reported).  For a constant gradient (a, b) the spectrum is
a/u +- sqrt((1+|b|^2)/u), which makes the two criteria exactly equivalent;
`equivalence_scan` drives both routes independently over seeded random draws.

Each route is one function of gradient values: `matrix_margins` builds M
and returns its margins, `scalar_margins` the scalar ones.  The
certificates feed them the stencil gradients of a lattice function, and
`equivalence_scan` feeds them every constant-gradient draw at once.

Margins: matrix mode reports the minimal eigenvalue of M (0 on the exactly
steep boundary), scalar mode reports -(g(grad f, grad f) + 1).  Steep means
margin >= -EIG_TOL with, in scalar mode, the additional orientation d_t f > 0.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from .checks import Check
from .clifford import build_gamma, chirality
from .dirac import DiracOperator, gradient_symbol
from .lattice import ScalarField, gradient

EIG_TOL = 1e-9


@dataclass
class SteepnessReport:
    mode: str                    # "matrix" | "scalar"
    steep: bool
    sites_failed: int
    worst_margin: float
    hermiticity_residual: float = 0.0
    orientation_ok: bool = True  # scalar mode: d_t f > 0 everywhere
    tolerance: float = EIG_TOL

    def to_dict(self):
        return {
            "mode": self.mode,
            "global": self.steep,
            "sites_failed": self.sites_failed,
            "worst_margin": self.worst_margin,
            "hermiticity_residual": self.hermiticity_residual,
            "orientation_ok": self.orientation_ok,
            "tolerance": self.tolerance,
        }


def matrix_margins(grads, u, rep, gamma_ch=None):
    """Minimal eigenvalue of M at each point, and the Hermiticity residual of M.

    M = [D,T] (-i c(df) + i gamma_ch) is built from gradient values: grads
    holds one array of d_mu f per axis and u the lapse, broadcast together;
    [D,T] is the symbol of the exact gradient dT = dt.
    """
    if gamma_ch is None:
        gamma_ch = chirality(rep)
    k = gradient_symbol(rep, [1.0] + [0.0] * (len(grads) - 1), u)
    m = np.einsum("...ab,...bc->...ac", k,
                  gradient_symbol(rep, grads, u) + 1j * gamma_ch)
    mh = np.conj(np.swapaxes(m, -1, -2))
    herm = float(np.abs(m - mh).max(initial=0.0))
    return np.linalg.eigvalsh(0.5 * (m + mh))[..., 0], herm


def scalar_margins(grads, u):
    """-(g(grad f, grad f) + 1) and the orientation d_t f > 0 at each point."""
    g = -(grads[0] ** 2) / u
    for gi in grads[1:]:
        g = g + gi ** 2
    return -(g + 1.0), grads[0] > 0


def _stencil_gradients(f):
    return [gradient(f, axis).values for axis in range(f.lattice.dimension)]


def is_steep_matrix(f: ScalarField, D: DiracOperator):
    if f.lattice != D.lattice:
        raise ValueError("candidate lives on a different lattice")
    margins, herm = matrix_margins(_stencil_gradients(f), D.u, D.rep)
    failed = int(np.count_nonzero(margins < -EIG_TOL))
    return SteepnessReport(
        mode="matrix",
        steep=bool(failed == 0),
        sites_failed=failed,
        worst_margin=float(margins.min()),
        hermiticity_residual=herm,
    )


def is_steep_scalar(f: ScalarField, u=None):
    lat = f.lattice
    if u is None:
        uv = np.ones(lat.shape)
    else:
        uv = np.asarray(u.values if isinstance(u, ScalarField) else u, dtype=float)
        uv = np.broadcast_to(uv, lat.shape)
    margins, oriented = scalar_margins(_stencil_gradients(f), uv)
    failed = int(np.count_nonzero((margins < -EIG_TOL) | ~oriented))
    return SteepnessReport(
        mode="scalar",
        steep=bool(failed == 0),
        sites_failed=failed,
        worst_margin=float(margins.min()),
        orientation_ok=bool(np.all(oriented)),
    )


@dataclass
class EquivalenceReport:
    samples: int
    dimension: int
    agreements: int
    disagreements: list = field(default_factory=list)
    steep_count: int = 0

    @property
    def agreement_rate(self):
        return self.agreements / self.samples if self.samples else 1.0

    @property
    def checks(self):
        return (Check("steepness routes agree", not self.disagreements,
                      "%d/%d agree" % (self.agreements, self.samples)),)

    def to_dict(self):
        return {
            "samples": self.samples,
            "dimension": self.dimension,
            "agreements": self.agreements,
            "agreement_rate": self.agreement_rate,
            "steep_count": self.steep_count,
            "disagreements": self.disagreements,
        }


def equivalence_scan(samples, seed, dimension=2, u=1.0):
    """Matrix vs scalar verdicts on random constant-gradient linear functions.

    Linear f = a t + b.x + c has a site-independent gradient, so each draw is
    decided by one constraint matrix and one scalar inequality, evaluated
    independently; all draws go through `matrix_margins` in one batch.
    Returns an agreement report (must be 100%).
    """
    if dimension % 2 != 0:
        raise ValueError("matrix mode needs even dimension (chirality)")
    low = np.r_[-2.5, np.full(dimension - 1, -1.5)]
    grads = default_rng(seed).uniform(low, -low, size=(samples, dimension))
    m_margin, _ = matrix_margins(grads.T, u, build_gamma(dimension))
    s_margin, oriented = scalar_margins(grads.T, u)
    m_steep = m_margin >= -EIG_TOL
    agree = m_steep == ((s_margin >= -EIG_TOL) & oriented)
    disagreements = [{"draw": int(i), "gradient": grads[i].tolist(),
                      "matrix_margin": float(m_margin[i]),
                      "scalar_margin": float(s_margin[i]),
                      "oriented": bool(oriented[i])}
                     for i in np.flatnonzero(~agree)]
    return EquivalenceReport(samples, dimension, int(agree.sum()),
                             disagreements, int(np.sum(m_steep & agree)))
