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

Margins: matrix mode reports the minimal eigenvalue of M (0 on the exactly
steep boundary), scalar mode reports -(g(grad f, grad f) + 1).  Steep means
margin >= -tol with, in scalar mode, the additional orientation d_t f > 0.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from .checks import Check
from .clifford import build_gamma, chirality
from .dirac import DiracOperator
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
    site_detail: list = None
    notes: tuple = ()

    def to_dict(self, include_detail=False):
        d = {
            "mode": self.mode,
            "global": self.steep,
            "sites_failed": self.sites_failed,
            "worst_margin": self.worst_margin,
            "hermiticity_residual": self.hermiticity_residual,
            "orientation_ok": self.orientation_ok,
            "tolerance": self.tolerance,
        }
        if include_detail and self.site_detail is not None:
            d["site_detail"] = self.site_detail
        return d


def constraint_matrices(f: ScalarField, D: DiracOperator, gamma_ch=None):
    """Per-site M(x) = [D,T] (-i c(df) + i gamma_ch), shape sites + (s, s)."""
    if gamma_ch is None:
        gamma_ch = chirality(D.rep)
    c_df = D.commutator_with_scalar(f).values           # -i gamma^mu e^mu d_mu f
    k = D.temporal_commutator().values                  # -i gamma^0 u^{-1/2}
    inner = c_df + 1j * gamma_ch
    return np.einsum("...ab,...bc->...ac", k, inner)


def is_steep_matrix(f: ScalarField, D: DiracOperator, gamma_ch=None,
                    tol=EIG_TOL, site_detail=False):
    if f.lattice != D.lattice:
        raise ValueError("candidate lives on a different lattice")
    m = constraint_matrices(f, D, gamma_ch)
    herm = float(np.abs(m - np.conj(np.swapaxes(m, -1, -2))).max())
    msym = 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))
    eigs = np.linalg.eigvalsh(msym)
    margins = eigs[..., 0]                              # minimal eigenvalue per site
    failed = int(np.count_nonzero(margins < -tol))
    report = SteepnessReport(
        mode="matrix",
        steep=bool(failed == 0),
        sites_failed=failed,
        worst_margin=float(margins.min()),
        hermiticity_residual=herm,
        tolerance=tol,
    )
    if site_detail:
        flat = margins.reshape(-1)
        report.site_detail = [
            {"site": int(i), "margin": float(flat[i])}
            for i in np.nonzero(flat < -tol)[0]
        ]
    return report


def is_steep_scalar(f: ScalarField, u=None, tol=EIG_TOL, site_detail=False):
    lat = f.lattice
    if u is None:
        uv = np.ones(lat.shape)
    else:
        uv = np.asarray(u.values if isinstance(u, ScalarField) else u, dtype=float)
        uv = np.broadcast_to(uv, lat.shape)
    dt = gradient(f, 0).values
    g = -(dt ** 2) / uv
    for axis in range(1, lat.dimension):
        g = g + gradient(f, axis).values ** 2
    margins = -(g + 1.0)
    oriented = dt > 0
    bad = (margins < -tol) | ~oriented
    failed = int(np.count_nonzero(bad))
    report = SteepnessReport(
        mode="scalar",
        steep=bool(failed == 0),
        sites_failed=failed,
        worst_margin=float(margins.min()),
        orientation_ok=bool(np.all(oriented)),
        tolerance=tol,
    )
    if site_detail:
        flatm = margins.reshape(-1)
        flato = oriented.reshape(-1)
        report.site_detail = [
            {"site": int(i), "margin": float(flatm[i]), "oriented": bool(flato[i])}
            for i in np.nonzero(bad.reshape(-1))[0]
        ]
    return report


# ----------------------------------------------- constant-gradient fast paths


def matrix_margin_constant(grad, rep=None, gamma_ch=None, u=1.0):
    """Minimal eigenvalue of M for a constant gradient (site-independent)."""
    grad = np.asarray(grad, dtype=float)
    n = grad.size
    if rep is None:
        rep = build_gamma(n)
    if gamma_ch is None:
        gamma_ch = chirality(rep)
    c_df = np.zeros((rep.matrix_size, rep.matrix_size), dtype=complex)
    for mu in range(n):
        e = 1.0 / np.sqrt(u) if mu == 0 else 1.0
        c_df += -1j * e * grad[mu] * rep.matrices[mu]
    k = -1j * rep.matrices[0] / np.sqrt(u)
    m = k @ (c_df + 1j * gamma_ch)
    msym = 0.5 * (m + m.conj().T)
    return float(np.linalg.eigvalsh(msym).min())


def scalar_margin_constant(grad, u=1.0):
    grad = np.asarray(grad, dtype=float)
    g = -(grad[0] ** 2) / u + float(np.sum(grad[1:] ** 2))
    return -(g + 1.0), bool(grad[0] > 0)


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


def equivalence_scan(samples, seed, dimension=2, tol=EIG_TOL, u=1.0):
    """Matrix vs scalar verdicts on random constant-gradient linear functions.

    Linear f = a t + b.x + c has a site-independent gradient, so each draw is
    decided by one constraint matrix and one scalar inequality, evaluated
    independently.  Returns an agreement report (must be 100%).
    """
    if dimension % 2 != 0:
        raise ValueError("matrix mode needs even dimension (chirality)")
    rng = default_rng(seed)
    rep = build_gamma(dimension)
    gam = chirality(rep)
    agreements = 0
    steep_count = 0
    disagreements = []
    for i in range(samples):
        a = rng.uniform(-2.5, 2.5)
        b = rng.uniform(-1.5, 1.5, size=dimension - 1)
        grad = np.concatenate(([a], b))
        m_margin = matrix_margin_constant(grad, rep, gam, u=u)
        s_margin, oriented = scalar_margin_constant(grad, u=u)
        m_steep = m_margin >= -tol
        s_steep = (s_margin >= -tol) and oriented
        if m_steep == s_steep:
            agreements += 1
            steep_count += int(m_steep)
        else:
            disagreements.append({
                "draw": i, "gradient": grad.tolist(),
                "matrix_margin": m_margin, "scalar_margin": s_margin,
                "oriented": oriented,
            })
    return EquivalenceReport(samples, dimension, agreements,
                             disagreements, steep_count)
