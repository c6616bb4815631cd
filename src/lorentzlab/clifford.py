"""Gamma-matrix representations for signature (-,+,...,+).

Conventions, fixed once and used everywhere downstream:

* anticommutators  {gamma^mu, gamma^nu} = 2 g^{mu nu} 1  with
  g = diag(-1,+1,...,+1);
* gamma^0 is anti-Hermitian with (gamma^0)^2 = -1, the spatial gamma^i are
  Hermitian with (gamma^i)^2 = +1;
* fundamental symmetry J = i gamma^0 (Hermitian, J^2 = 1), Krein adjoint
  A+ = J A* J;
* chirality (even n only)  gamma_ch = (-i)^{n/2+1} gamma^0 ... gamma^{n-1},
  Hermitian, squares to 1, anticommutes with every gamma^mu.

The construction is the usual tensor-product ladder: Hermitian Euclidean
generators G_1..G_n built from sigma1/sigma2 with sigma3 prefixes, then
gamma^0 = i G_1.  Matrix size is 2^floor(n/2).  Everything is deterministic.

Residuals on matrix identities are entrywise max-abs norms.
"""

from dataclasses import dataclass, field

import numpy as np

from .checks import Check

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)

CLIFFORD_TOL = 1e-12


def _kron_chain(mats):
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def max_abs(m):
    """Entrywise max-abs norm used for all identity residuals."""
    return float(np.abs(m).max())


@dataclass(frozen=True)
class GammaRep:
    """An n-tuple of gamma matrices with the metric signs they should square to."""

    dimension: int
    matrices: tuple
    metric_signs: tuple  # +-1 per index; canonical reps use (-1, 1, ..., 1)

    @property
    def matrix_size(self):
        return self.matrices[0].shape[0]

    def conjugated(self, unitary):
        """Return the rep with every matrix replaced by U g U^dagger."""
        u = np.asarray(unitary, dtype=complex)
        mats = tuple(u @ g @ u.conj().T for g in self.matrices)
        return GammaRep(self.dimension, mats, self.metric_signs)


def _euclidean_generators(n):
    m = n // 2
    gens = []
    for k in range(1, m + 1):
        prefix = [SIGMA3] * (k - 1)
        suffix = [np.eye(2, dtype=complex)] * (m - k)
        gens.append(_kron_chain(prefix + [SIGMA1] + suffix))
        gens.append(_kron_chain(prefix + [SIGMA2] + suffix))
    if n % 2 == 1:
        gens.append(_kron_chain([SIGMA3] * m))
    return gens[:n]


def build_gamma(n):
    """Deterministic gamma representation for signature (-,+,...,+) in n >= 2."""
    if not isinstance(n, int) or n < 2:
        raise ValueError("dimension must be an integer >= 2, got %r" % (n,))
    gens = _euclidean_generators(n)
    mats = [1j * gens[0]] + gens[1:]
    for g in mats:
        g.setflags(write=False)
    return GammaRep(n, tuple(mats), tuple([-1] + [1] * (n - 1)))


@dataclass
class CliffordReport:
    dimension: int
    anticommutator_residuals: dict = field(default_factory=dict)  # (mu,nu) -> float
    hermiticity_residuals: tuple = ()
    max_residual: float = 0.0

    @property
    def checks(self):
        return (Check("clifford n=%d" % self.dimension,
                      self.max_residual <= CLIFFORD_TOL,
                      "max residual %.3e" % self.max_residual),)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "dimension": self.dimension,
            "max_anticommutator_residual": max(self.anticommutator_residuals.values()),
            "max_hermiticity_residual": max(self.hermiticity_residuals),
            "max_residual": self.max_residual,
            "passed": self.passed,
        }


def check_clifford(rep):
    """Verify anticommutators and the Hermiticity pattern of a GammaRep."""
    n = rep.dimension
    size = rep.matrix_size
    eye = np.eye(size)
    anti = {}
    for mu in range(n):
        for nu in range(mu, n):
            target = 2.0 * rep.metric_signs[mu] * eye if mu == nu else 0.0
            res = rep.matrices[mu] @ rep.matrices[nu] + rep.matrices[nu] @ rep.matrices[mu] - target
            anti[(mu, nu)] = max_abs(res)
    herm = []
    for mu in range(n):
        g = rep.matrices[mu]
        if rep.metric_signs[mu] < 0:
            herm.append(max_abs(g + g.conj().T))   # anti-Hermitian
        else:
            herm.append(max_abs(g - g.conj().T))   # Hermitian
    worst = max(max(anti.values()), max(herm))
    return CliffordReport(
        dimension=n,
        anticommutator_residuals=anti,
        hermiticity_residuals=tuple(herm),
        max_residual=worst,
    )


def _require_valid(rep):
    report = check_clifford(rep)
    if not report.passed:
        raise ValueError(
            "gamma representation fails the Clifford relations "
            "(max residual %.3e)" % report.max_residual)
    return report


def fundamental_symmetry(rep):
    """J = i gamma^0.  Hermitian with J^2 = 1 for a valid rep."""
    _require_valid(rep)
    j = 1j * rep.matrices[0]
    j.setflags(write=False)
    return j


def krein_adjoint(a, j):
    """A+ = J A* J with A* the conjugate transpose."""
    return j @ a.conj().T @ j


def chirality(rep):
    """gamma_ch = (-i)^{n/2+1} gamma^0 ... gamma^{n-1}; even n only."""
    _require_valid(rep)
    n = rep.dimension
    if n % 2 != 0:
        raise ValueError("chirality requires even dimension, got n = %d" % n)
    prod = np.eye(rep.matrix_size, dtype=complex)
    for g in rep.matrices:
        prod = prod @ g
    gam = (-1j) ** (n // 2 + 1) * prod
    gam.setflags(write=False)
    return gam
