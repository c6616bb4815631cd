import numpy as np
import pytest

from lorentzlab.checks import verdict
from lorentzlab.clifford import GammaRep, build_gamma, check_clifford, max_abs
from lorentzlab.dirac import DiracOperator, check_temporal_axioms
from lorentzlab.lattice import Lattice
from lorentzlab.steepness import equivalence_scan, matrix_margins
from oracles import (clifford_residuals, conjugated, fundamental_symmetry,
                     krein_adjoint)


def assert_maxima_match_oracle(rep, report, rel=0.0):
    """check_clifford's payload maxima against the per-label loop of the
    oracle: to `rel` relative, bit for bit at rel = 0."""
    anti, herm = clifford_residuals(rep)
    want = {"max_anticommutator_residual": max(anti.values()),
            "max_hermiticity_residual": max(herm)}
    want["max_residual"] = max(want.values())
    for key, value in want.items():
        assert report[key] == pytest.approx(value, rel=rel, abs=0.0), key


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_anticommutators_exact(n):
    rep = build_gamma(n)
    checks, report = check_clifford(rep)
    assert report["passed"] and verdict(checks)["passed"]
    assert report["max_residual"] <= 1e-12
    assert_maxima_match_oracle(rep, report)


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
    gam = rep.grading
    s = rep.matrix_size
    assert not gam.flags.writeable
    # (-i)^{n/2+1} gamma^0 ... gamma^{n-1}, the product taken left to right
    prod = np.eye(s)
    for g in rep.matrices:
        prod = prod @ g
    assert np.array_equal(gam, (-1j) ** (n // 2 + 1) * prod)
    assert max_abs(gam - gam.conj().T) == 0.0
    assert max_abs(gam @ gam - np.eye(s)) == 0.0
    for g in rep.matrices:
        assert max_abs(gam @ g + g @ gam) == 0.0
    # the ladder construction makes it an exact diagonal sign matrix
    assert max_abs(gam - np.diag(np.diag(gam))) == 0.0


def test_chirality_two_dimensions_is_sigma3():
    gam = build_gamma(2).grading
    assert np.array_equal(gam, np.diag([1.0 + 0j, -1.0]))


def test_chirality_needs_even_dimension():
    for n in (3, 5, 7):
        rep = build_gamma(n)
        assert rep.grading is None
        # the steepness matrix reads the grading, and names the dimension
        # of a rep that has none
        with pytest.raises(ValueError, match="%d-dimensional" % n):
            matrix_margins([np.ones(1)] * n, 1.0, rep)
    with pytest.raises(ValueError, match="3-dimensional"):
        equivalence_scan(4, seed=0, dimension=3)
    ungraded = GammaRep(2, build_gamma(2).matrices, (-1, 1))
    with pytest.raises(ValueError, match="2-dimensional"):
        matrix_margins([np.ones(1)] * 2, 1.0, ungraded)


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
    rot = conjugated(rep, q)
    _, report = check_clifford(rot)
    assert report["passed"]


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
    _, report = check_clifford(bad)
    assert not report["passed"]
    assert report["max_residual"] == pytest.approx(2e-3, rel=1e-10)
    assert_maxima_match_oracle(bad, report, rel=1e-15)


def test_check_clifford_rejects_two_time_directions():
    rep = build_gamma(4)
    mats = list(rep.matrices)
    mats[1] = 1j * mats[1]          # second square becomes -1
    bad = GammaRep(4, tuple(mats), rep.metric_signs)
    _, report = check_clifford(bad)
    assert not report["passed"]
    # {gamma^1, gamma^1} = -2 against the canonical +2, and gamma^1 is
    # anti-Hermitian where a spatial generator must be Hermitian; both are
    # the largest residuals of their kind
    anti, herm = clifford_residuals(bad)
    assert anti[(1, 1)] == pytest.approx(4.0)
    assert herm[1] == pytest.approx(2.0)
    assert report["max_anticommutator_residual"] == pytest.approx(4.0)
    assert report["max_hermiticity_residual"] == pytest.approx(2.0)
    assert_maxima_match_oracle(bad, report, rel=1e-15)


def test_check_clifford_rejects_a_nan_entry():
    # max() drops a NaN that does not come first: this rep read 0.0, and
    # so did both payload maxima
    rep = build_gamma(2)
    g1 = np.array(rep.matrices[1])
    g1[0, 1] = np.nan
    checks, report = check_clifford(GammaRep(2, (rep.matrices[0], g1),
                                             rep.metric_signs))
    assert np.isnan(report["max_residual"])
    assert np.isnan(report["max_anticommutator_residual"])
    assert np.isnan(report["max_hermiticity_residual"])
    assert not report["passed"] and not verdict(checks)["passed"]


def test_check_clifford_rejects_random_matrices():
    rng = np.random.RandomState(3)
    mats = tuple(rng.randn(4, 4) + 1j * rng.randn(4, 4) for _ in range(3))
    rep = GammaRep(3, mats, (-1, 1, 1))
    _, report = check_clifford(rep)
    assert not report["passed"]
    assert report["max_residual"] > 1.0
    assert_maxima_match_oracle(rep, report, rel=1e-15)


def test_build_gamma_rejects_bad_dimension():
    with pytest.raises(ValueError):
        build_gamma(1)
    with pytest.raises(ValueError):
        build_gamma(0)


def _regraded(rep, grading):
    return GammaRep(rep.dimension, rep.matrices, rep.metric_signs, grading)


@pytest.mark.parametrize("n", [2, 4])
def test_check_clifford_checks_the_grading(n):
    # the grading is generator n+1 of metric sign +1: a scaled one fails its
    # square, one that commutes fails the anticommutators, and each residual
    # is the loop oracle's
    rep = build_gamma(n)
    eye = np.eye(rep.matrix_size, dtype=complex)
    for grading, anti, herm in ((2.0 * rep.grading, 6.0, 0.0),
                                (eye, 2.0, 0.0),
                                (1j * rep.grading, 4.0, 2.0)):
        bad = _regraded(rep, grading)
        checks, report = check_clifford(bad)
        assert not report["passed"] and not verdict(checks)["passed"]
        assert report["max_anticommutator_residual"] == pytest.approx(anti)
        assert report["max_hermiticity_residual"] == pytest.approx(herm)
        assert_maxima_match_oracle(bad, report, rel=1e-15)


def test_conjugating_the_gammas_alone_breaks_the_grading():
    rep = build_gamma(4)
    rng = np.random.RandomState(5)
    q, _ = np.linalg.qr(rng.randn(4, 4) + 1j * rng.randn(4, 4))
    rot = conjugated(rep, q)
    _, report = check_clifford(_regraded(rot, rep.grading))
    assert not report["passed"]
    assert_maxima_match_oracle(_regraded(rot, rep.grading), report, rel=1e-12)


def test_readers_refuse_a_rep_that_fails_check_clifford():
    rep = build_gamma(2)
    lat = Lattice(((0.0, 4.0), (0.0, 4.0)), (4, 4))
    for bad in (GammaRep(2, (rep.matrices[0], 2.0 * rep.matrices[1]),
                         rep.metric_signs, rep.grading),
                _regraded(rep, 2.0 * rep.grading)):
        with pytest.raises(ValueError, match="fails the Clifford relations"):
            matrix_margins([np.ones(1), np.zeros(1)], 1.0, bad)
        with pytest.raises(ValueError, match="fails the Clifford relations"):
            check_temporal_axioms(DiracOperator(bad, lat))
