"""Gamma-matrix representations for signature (-,+,...,+).

Conventions, fixed once and used everywhere downstream:

* anticommutators  {gamma^mu, gamma^nu} = 2 g^{mu nu} 1  with
  g = diag(-1,+1,...,+1);
* gamma^0 is anti-Hermitian with (gamma^0)^2 = -1, the spatial gamma^i are
  Hermitian with (gamma^i)^2 = +1;
* fundamental symmetry J = i gamma^0 (Hermitian, J^2 = 1), Krein adjoint
  A+ = J A* J;
* grading (even n only)  gamma_ch = (-i)^{n/2+1} gamma^0 ... gamma^{n-1},
  Hermitian, squares to 1, anticommutes with every gamma^mu: `build_gamma`
  stores it on the rep, and `check_clifford` checks it as one more
  generator of metric sign +1.

The construction is the usual tensor-product ladder: Hermitian Euclidean
generators G_1..G_n built from sigma1/sigma2 with sigma3 prefixes, then
gamma^0 = i G_1.  Matrix size is 2^floor(n/2).  Everything is deterministic.

Residuals on matrix identities are entrywise max-abs norms.
"""

from dataclasses import dataclass

import numpy as np

from .checks import Check, verdict

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
    """An n-tuple of gamma matrices with the metric signs they should square
    to, and the grading of the representation (None where it has none)."""

    dimension: int
    matrices: tuple
    metric_signs: tuple  # +-1 per index; canonical reps use (-1, 1, ..., 1)
    grading: object = None

    @property
    def matrix_size(self):
        return self.matrices[0].shape[0]


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
    """Deterministic gamma representation for signature (-,+,...,+) in n >= 2,
    graded by gamma_ch where n is even."""
    if not isinstance(n, int) or n < 2:
        raise ValueError("dimension must be an integer >= 2, got %r" % (n,))
    gens = _euclidean_generators(n)
    mats = [1j * gens[0]] + gens[1:]
    grading = None
    if n % 2 == 0:
        prod = np.eye(len(gens[0]), dtype=complex)
        for g in mats:
            prod = prod @ g
        grading = (-1j) ** (n // 2 + 1) * prod
        grading.setflags(write=False)
    for g in mats:
        g.setflags(write=False)
    return GammaRep(n, tuple(mats), tuple([-1] + [1] * (n - 1)), grading)


def check_clifford(rep):
    """Anticommutators and Hermiticity pattern of a GammaRep.

    Returns (checks, payload): one check held to CLIFFORD_TOL, and the
    dimension, the largest anticommutator and Hermiticity residuals, their
    max and the verdict.  A stored grading is generator n+1, of metric
    sign +1: it must anticommute with every gamma^mu, square to 1 and be
    Hermitian.  Every product of two generators comes from one stacked
    product; the anticommutator residual is one max_abs over all pairs, and
    the Hermiticity residual the max_abs of g - eta g^dagger over every
    generator g, with eta its metric sign.  Every max is np.max, so a NaN
    residual stays NaN.
    """
    n, size = rep.dimension, rep.matrix_size
    grading = () if rep.grading is None else (rep.grading,)
    g = np.stack(rep.matrices + grading)
    eta = np.asarray(rep.metric_signs + (1,) * len(grading),
                     dtype=float)[:, None, None]
    prod = g[:, None] @ g[None]             # prod[mu, nu] = g^mu g^nu
    # {g^mu, g^nu} - 2 g^{mu nu} 1 over every (mu, nu): the sum and the
    # target are symmetric bit for bit, so this is the max over mu <= nu
    target = 2.0 * np.eye(len(g))[:, :, None, None] * eta[:, None] * np.eye(size)
    anti = max_abs(prod + prod.swapaxes(0, 1) - target)
    herm = max_abs(g - eta * g.conj().transpose(0, 2, 1))
    worst = float(np.max([anti, herm]))
    checks = (Check("clifford n=%d" % n, worst, "<=", CLIFFORD_TOL),)
    return checks, {
        "dimension": n,
        "max_anticommutator_residual": anti,
        "max_hermiticity_residual": herm,
        "max_residual": worst,
        "passed": verdict(checks)["passed"],
    }


def require_valid(rep):
    """Raise unless `rep` passes `check_clifford`."""
    _, payload = check_clifford(rep)
    if not payload["passed"]:
        raise ValueError(
            "gamma representation fails the Clifford relations "
            "(max residual %.3e)" % payload["max_residual"])

