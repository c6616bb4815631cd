import numpy as np
import pytest

from lorentzlab.clifford import (GammaRep, build_gamma, check_clifford,
                                 chirality, fundamental_symmetry,
                                 krein_adjoint, max_abs)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_anticommutators_exact(n):
    rep = build_gamma(n)
    report = check_clifford(rep)
    assert report.passed
    assert report.max_residual <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_time_direction_antihermitian(n):
    rep = build_gamma(n)
    g0 = rep.matrices[0]
    assert max_abs(g0 + g0.conj().T) == 0.0
    assert max_abs(g0 @ g0 + np.eye(rep.matrix_size)) == 0.0
    for gi in rep.matrices[1:]:
        assert max_abs(gi - gi.conj().T) == 0.0
        assert max_abs(gi @ gi - np.eye(rep.matrix_size)) == 0.0


def test_metric_signs():
    rep = build_gamma(4)
    assert rep.metric_signs == (-1, 1, 1, 1)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_chirality(n):
    rep = build_gamma(n)
    gam = chirality(rep)
    s = rep.matrix_size
    assert max_abs(gam - gam.conj().T) == 0.0
    assert max_abs(gam @ gam - np.eye(s)) == 0.0
    for g in rep.matrices:
        assert max_abs(gam @ g + g @ gam) == 0.0
    # the ladder construction makes it an exact diagonal sign matrix
    assert max_abs(gam - np.diag(np.diag(gam))) == 0.0


def test_chirality_two_dimensions_is_sigma3():
    gam = chirality(build_gamma(2))
    assert np.array_equal(gam, np.diag([1.0 + 0j, -1.0]))


def test_chirality_needs_even_dimension():
    with pytest.raises(ValueError):
        chirality(build_gamma(3))


@pytest.mark.parametrize("n", [2, 4])
def test_fundamental_symmetry(n):
    rep = build_gamma(n)
    j = fundamental_symmetry(rep)
    s = rep.matrix_size
    assert max_abs(j - j.conj().T) <= 1e-14
    assert max_abs(j @ j - np.eye(s)) <= 1e-14


def test_krein_adjoint_involution():
    rep = build_gamma(4)
    j = fundamental_symmetry(rep)
    rng = np.random.RandomState(11)
    a = rng.randn(rep.matrix_size, rep.matrix_size) \
        + 1j * rng.randn(rep.matrix_size, rep.matrix_size)
    twice = krein_adjoint(krein_adjoint(a, j), j)
    assert max_abs(twice - a) <= 1e-14


def test_gammas_krein_antiselfadjoint():
    # A+ = J A* J sends every gamma to its negative
    for n in (2, 4):
        rep = build_gamma(n)
        j = fundamental_symmetry(rep)
        for g in rep.matrices:
            assert max_abs(krein_adjoint(g, j) + g) <= 1e-14


def test_conjugated_rep_still_passes():
    rep = build_gamma(4)
    rng = np.random.RandomState(5)
    m = rng.randn(4, 4) + 1j * rng.randn(4, 4)
    q, _ = np.linalg.qr(m)
    rot = rep.conjugated(q)
    report = check_clifford(rot)
    assert report.passed


def test_perturbation_oracle():
    # mixing a spatial direction into gamma^0 by epsilon leaves a cross
    # anticommutator of exactly 2 epsilon
    rep = build_gamma(2)
    eps = 1e-3
    bad = GammaRep(
        dimension=2,
        matrices=(rep.matrices[0] + eps * rep.matrices[1], rep.matrices[1]),
        metric_signs=rep.metric_signs,
    )
    report = check_clifford(bad)
    assert not report.passed
    assert report.max_residual == pytest.approx(2e-3, rel=1e-10)


def test_check_clifford_rejects_two_time_directions():
    rep = build_gamma(4)
    mats = list(rep.matrices)
    mats[1] = 1j * mats[1]          # second square becomes -1
    report = check_clifford(GammaRep(4, tuple(mats), rep.metric_signs))
    assert not report.passed
    # {gamma^1, gamma^1} = -2 against the canonical +2, and gamma^1 is
    # anti-Hermitian where a spatial generator must be Hermitian
    assert report.anticommutator_residuals[(1, 1)] == pytest.approx(4.0)
    assert report.hermiticity_residuals[1] == pytest.approx(2.0)


def test_check_clifford_rejects_random_matrices():
    rng = np.random.RandomState(3)
    mats = tuple(rng.randn(4, 4) + 1j * rng.randn(4, 4) for _ in range(3))
    report = check_clifford(GammaRep(3, mats, (-1, 1, 1)))
    assert not report.passed
    assert report.max_residual > 1.0


def test_build_gamma_rejects_bad_dimension():
    with pytest.raises(ValueError):
        build_gamma(1)
    with pytest.raises(ValueError):
        build_gamma(0)
