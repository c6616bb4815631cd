import dataclasses
import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import block_diag

from lorentzlab import dirac
from lorentzlab.clifford import build_gamma, fundamental_symmetry, max_abs
from lorentzlab.dirac import (DENSE_LIMIT, ORACLE_LIMIT, RECIPROCAL_TOL,
                              DiracOperator,
                              check_temporal_axioms, elliptic_square,
                              flat_operator)
from lorentzlab.lattice import Lattice, ScalarField, SpinorField, gradient


def test_plane_wave_symbol():
    # D e^{ikx} eta = gamma^mu (sin(k_mu h)/h) e^{ikx} eta on the flat torus
    op = flat_operator(2, 16)
    lat = op.lattice
    kt = 2.0 * np.pi * 2.0 / 16.0
    kx = 2.0 * np.pi * 5.0 / 16.0
    t = lat.coordinate_array(0)
    x = lat.coordinate_array(1)
    wave = np.exp(1j * (kt * t + kx * x))
    eta = np.array([1.0, 2.0 - 1j])
    psi = SpinorField(lat, wave[..., None] * eta)
    got = op.apply(psi).values
    sym = np.sin(kt) * op.rep.matrices[0] + np.sin(kx) * op.rep.matrices[1]
    want = wave[..., None] * (sym @ eta)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_commutator_symbol_matches_operator_to_stencil_order():
    # both routes agree in the continuum; on smooth data the gap is O(h^2)
    errs = []
    for n in (16, 32):
        op = flat_operator(2, n, box=((0.0, 8.0), (0.0, 8.0)))
        lat = op.lattice
        f = ScalarField.from_expression(lat, "sin(0.7853981633974483*t)")
        t = lat.coordinate_array(0)
        x = lat.coordinate_array(1)
        wave = np.exp(1j * 2.0 * np.pi * (2.0 * t + x) / 8.0)
        psi = SpinorField(lat, wave[..., None] * np.array([1.0, 0.5 + 0.5j]))
        op_route = op.apply(SpinorField(lat, f.values[..., None] * psi.values)).values \
            - f.values[..., None] * op.apply(psi).values
        sym_route = np.einsum("...ab,...b->...a",
                              op.commutator_with_scalar(f), psi.values)
        errs.append(np.max(np.abs(op_route - sym_route)))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0          # second-order stencil


def test_temporal_commutator_exact_symbol():
    op = flat_operator(2, 8, u="4")
    k = op.temporal_commutator()
    want = -1j * op.rep.matrices[0] * 0.5      # u^{-1/2} = 1/2
    assert k.shape == op.lattice.shape + (2, 2)
    assert np.max(np.abs(k - want)) == 0.0
    assert max_abs(k - np.conj(np.swapaxes(k, -1, -2))) == 0.0


@pytest.mark.parametrize("u,expect", [("1", 1.0), ("4", 0.25)])
def test_commutator_square_is_inverse_u(u, expect):
    op = flat_operator(2, 8, u=u)
    k = op.temporal_commutator()
    ksq = np.einsum("...ab,...bc->...ac", k, k)
    want = expect * np.eye(2)
    assert np.max(np.abs(ksq - want)) == 0.0


def test_axiom_suite_flat():
    rep = check_temporal_axioms(flat_operator(2, 16), seed=0)
    assert rep.passed
    assert rep.hermiticity_residual <= 1e-12
    assert rep.u_square_deviation <= 1e-13
    assert rep.skew_residual <= 1e-12
    assert rep.krein_skew_residual <= 1e-12
    assert rep.krein_equiv_residual <= 1e-12
    assert rep.commute_residual <= 1e-13
    assert rep.elliptic_hermiticity <= 1e-12
    assert rep.elliptic_min_eigenvalue >= -1e-10


def test_axiom_suite_constant_u():
    rep = check_temporal_axioms(flat_operator(2, 16, u="4"), seed=0)
    assert rep.passed
    assert rep.u_ax_min == pytest.approx(0.25, abs=1e-15)
    assert rep.u_ax_max == pytest.approx(0.25, abs=1e-15)
    assert rep.reciprocal_residual <= 1e-13


def test_varying_u_reports_honest_defect():
    op = flat_operator(2, 16, box=((-4.0, 4.0), (-4.0, 4.0)),
                       boundary="clamped", u="1 + 0.25*t*t")
    rep = check_temporal_axioms(op, seed=0)
    # the continuum defect ~ d(u^{-1/2}) is bounded but nonzero
    assert rep.skew_residual > 1e-6
    assert not rep.adjoints_exact
    assert any("non-constant" in note for note in rep.notes)
    assert rep.reciprocal_residual <= 1e-13     # pointwise identity still exact
    assert rep.u_square_deviation <= 1e-13


def test_reciprocal_residual_above_bound_fails():
    rep = check_temporal_axioms(flat_operator(2, 8), seed=0)
    assert rep.passed
    bad = dataclasses.replace(rep, reciprocal_residual=2.0 * RECIPROCAL_TOL)
    assert not bad.passed
    assert [c.name for c in bad.checks if not c.passed] == ["u_ax * u_metric = 1"]


# The stencil products may sum in another order than zgemm; measured entry
# differences stay below 2.2 ulps of max|<D>^2| on these lattices.
ELLIPTIC_ULPS = 4


def _site_operator(op, blocks):
    return dirac._site_blocks(op.lattice, np.broadcast_to(
        blocks, op.temporal_commutator().shape))


@pytest.mark.parametrize("dim,points", [(2, 6), (4, 3)])
def test_block_products_match_dense_oracles(dim, points):
    # K = [D,T] and J act per site; the suite's stencil products must agree
    # exactly with the dense block-diagonal products of the dense oracle
    op = flat_operator(dim, points, box=((-3.0, 3.0),) * dim,
                       boundary="clamped", u="1 + 0.1*t")
    rep = check_temporal_axioms(op, seed=0)
    s = op.spinor_dim
    d = op.dense_matrix()
    k = block_diag(*op.temporal_commutator().reshape(-1, s, s))
    j = np.kron(np.eye(op.lattice.site_count), fundamental_symmetry(op.rep))
    kd, dk, jd = k @ d, d @ k, j @ d
    sd = op.sparse_matrix()
    sk = _site_operator(op, op.temporal_commutator())
    sj = _site_operator(op, fundamental_symmetry(op.rep))
    assert np.array_equal(sd.toarray(), d)
    assert np.array_equal((sk @ sd).toarray(), kd)
    assert np.array_equal((sd @ sk).toarray(), dk)
    assert np.array_equal((sj @ sd).toarray(), jd)
    assert np.array_equal(op.weighted_adjoint(sd).toarray(), op.weighted_adjoint(d))
    assert np.array_equal(op.weighted_adjoint(sk @ sd).toarray(),
                          op.weighted_adjoint(kd))
    assert rep.skew_residual == max_abs(op.weighted_adjoint(kd) + kd)
    assert rep.krein_skew_residual == max_abs(op.weighted_adjoint(jd) + jd)
    assert rep.krein_equiv_residual == max_abs(op.weighted_adjoint(d) + j @ d @ j)
    # <D>^2: the suite's residual is that of the matrix elliptic_square
    # returns, which is within a few ulps of the zgemm product
    got = elliptic_square(op)
    assert rep.elliptic_hermiticity == max_abs(got - got.conj().T)
    m = -0.5 * (dk @ dk + kd @ kd)
    eps = np.finfo(float).eps
    assert max_abs(got - m) <= ELLIPTIC_ULPS * eps * max_abs(m)


@pytest.mark.parametrize("dim,points", [(2, 6), (3, 4), (4, 3)])
def test_elliptic_square_equals_csr_product_when_exact(dim, points):
    # with h = 1 and u = 4 every product and sum in <D>^2 is exact, so any
    # summation order gives scipy's CSR product of the dense oracles
    op = flat_operator(dim, points, u="4")
    s = op.spinor_dim
    d = sp.csr_matrix(op.dense_matrix())
    k = sp.csr_matrix(block_diag(*op.temporal_commutator().reshape(-1, s, s)))
    dk, kd = d @ k, k @ d
    want = -0.5 * (dk @ dk + kd @ kd)
    assert np.array_equal(elliptic_square(op), want.toarray())
    rep = check_temporal_axioms(op, seed=0)
    assert rep.elliptic_hermiticity == max_abs(want - want.conj().T)


ORACLE_CASES = [pytest.param(dim, {2: 6, 3: 4, 4: 3}[dim], boundary, u,
                             id="%d-%s-%s" % (dim, boundary, u))
                for dim, boundary, u in itertools.product(
                    (2, 3, 4), ("periodic", "clamped"), (None, "1 + 0.1*t"))]
# 2-site periodic axes: the +1 and -1 offsets address one column and cancel
ORACLE_CASES += [pytest.param(2, points, "periodic", u,
                              id="%dx%d-periodic-%s" % (points + (u,)))
                 for points in ((2, 5), (5, 2), (2, 2))
                 for u in (None, "1 + 0.1*t")]


@pytest.mark.parametrize("dim,points,boundary,u", ORACLE_CASES)
def test_sparse_matrix_equals_dense_oracle(dim, points, boundary, u):
    op = flat_operator(dim, points, box=((-3.0, 3.0),) * dim,
                       boundary=boundary, u=u)
    assert np.array_equal(op.sparse_matrix().toarray(), op.dense_matrix())


def _stencil_square(op):
    """<D>^2 in stencil form, as check_temporal_axioms forms it."""
    return dirac._elliptic_square(op.sparse_matrix(), dirac._site_blocks(
        op.lattice, op.temporal_commutator()))


@pytest.mark.parametrize("dim,points,u", [
    (2, 8, "1"), (2, 6, "1 + 0.1*t"), (3, 4, "1 + 0.1*t"), (4, 3, "1"),
    (4, 3, "1 + 0.1*t"), (3, 6, "2+sin(t)"),
    # a 2-site spatial axis: its +1 and -1 offsets address one column
    pytest.param(2, (6, 2), "1 + 0.1*t", id="6x2-1 + 0.1*t"),
    pytest.param(3, (4, 2, 3), "1", id="4x2x3-1")])
def test_momentum_blocks_match_dense_eigenvalues(dim, points, u):
    op = flat_operator(dim, points, u=u)
    m = elliptic_square(op)
    want = np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min()
    rep = check_temporal_axioms(op, seed=0)
    assert abs(rep.elliptic_min_eigenvalue - want) <= 1e-12
    pts = op.lattice.points
    blocks = dirac._momentum_blocks(_stencil_square(op))
    assert blocks.shape == (int(np.prod(pts[1:])),) + (pts[0] * op.spinor_dim,) * 2
    if u == "2+sin(t)":     # the failing 3-d CLI config
        assert rep.elliptic_min_eigenvalue == pytest.approx(-5.0554e-3, abs=1e-7)
        assert not rep.passed


def test_suite_compares_sparse_d_with_probe_oracle(monkeypatch):
    op = flat_operator(2, 6)
    rep = check_temporal_axioms(op, seed=0)
    assert rep.passed and rep.assembly_residual == 0.0
    assert rep.checks[-1].name == "sparse D equals probe-built D"
    assembled = DiracOperator.sparse_matrix

    def perturbed(self):
        d = assembled(self)
        next(iter(d.diagonals.values())).flat[0] += 1e-15
        return d
    monkeypatch.setattr(DiracOperator, "sparse_matrix", perturbed)
    bad = check_temporal_axioms(op, seed=0)
    assert [c.name for c in bad.checks if not c.passed] == \
        ["sparse D equals probe-built D"]
    big = flat_operator(2, 20)
    assert big.dense_dim > ORACLE_LIMIT
    rep = check_temporal_axioms(big, seed=0)
    assert rep.assembly_residual is None
    assert "sparse D equals probe-built D" not in [c.name for c in rep.checks]


def test_clamped_elliptic_check_keeps_dense_limit():
    op = flat_operator(2, 64, boundary="clamped")
    assert op.dense_dim > DENSE_LIMIT
    with pytest.raises(ValueError, match="dense"):
        check_temporal_axioms(op)
    with pytest.raises(ValueError, match="limit"):
        elliptic_square(op)


def test_periodic_elliptic_check_keeps_momentum_budget():
    op = flat_operator(2, 81)
    assert dirac.momentum_block_bytes(op.lattice.points, 2) > dirac.MOMENTUM_BYTES_LIMIT
    assert dirac.momentum_block_bytes((80, 80), 2) <= dirac.MOMENTUM_BYTES_LIMIT
    with pytest.raises(ValueError, match="momentum"):
        check_temporal_axioms(op)


@pytest.mark.parametrize("dim,points,u", [(2, 8, "1 + 0.1*t"), (3, 4, "2+sin(t)")])
def test_elliptic_minimum_is_the_same_in_chunks(monkeypatch, dim, points, u):
    op = flat_operator(dim, points, u=u)
    pts, s = op.lattice.points, op.spinor_dim
    assert len(dirac._momentum_chunks(pts, s)) == 1
    whole = check_temporal_axioms(op, seed=0).elliptic_min_eigenvalue
    m = _stencil_square(op)
    blocks = dirac._momentum_blocks(m)
    # the smallest limit that still admits the lattice: chunks of 1-2 momenta
    monkeypatch.setattr(dirac, "MOMENTUM_BYTES_LIMIT",
                        dirac.momentum_block_bytes(pts, s))
    chunks = dirac._momentum_chunks(pts, s)
    assert len(chunks) >= 8
    assert np.array_equal(np.concatenate(
        [dirac._momentum_blocks(m, momenta=c) for c in chunks]), blocks)
    assert check_temporal_axioms(op, seed=0).elliptic_min_eigenvalue == whole


def test_elliptic_square_positive_with_zero_mode():
    op = flat_operator(2, 8)
    m = elliptic_square(op)
    herm = max_abs(m - m.conj().T)
    assert herm <= 1e-12
    eigs = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    assert eigs.min() >= -1e-10
    # constant spinors are annihilated on the periodic torus
    const = np.ones(m.shape[0], dtype=complex)
    assert np.max(np.abs(m @ const)) <= 1e-12


def test_dense_guard():
    op = flat_operator(2, 64)
    assert op.dense_dim > DENSE_LIMIT
    with pytest.raises(ValueError):
        op.dense_matrix()


def test_operator_validation():
    lat = Lattice(((0.0, 8.0), (0.0, 8.0)), (8, 8))
    rep3 = build_gamma(3)
    with pytest.raises(ValueError):
        DiracOperator(rep3, lat)
    with pytest.raises(ValueError):
        DiracOperator(build_gamma(2), lat, ScalarField.from_expression(lat, "x - 3.5"))
    with pytest.raises(ValueError):
        DiracOperator(build_gamma(2), lat,
                      ScalarField.from_expression(lat, "0*t - 1"))


def test_lapse_from_another_lattice_rejected():
    # same shape, another box: its samples are not u at this lattice's sites
    lat = Lattice(((0.0, 8.0), (0.0, 8.0)), (8, 8))
    other = Lattice(((-4.0, 4.0), (-4.0, 4.0)), (8, 8))
    with pytest.raises(ValueError, match="different lattice"):
        DiracOperator(build_gamma(2), lat,
                      ScalarField.from_expression(other, "2+sin(t)"))
    op = DiracOperator(build_gamma(2), lat,
                       ScalarField.from_expression(lat, "2+sin(t)"))
    assert np.array_equal(op.u[:, 0], 2.0 + np.sin(lat.axis_coordinates(0)))


def test_weighted_adjoint_is_involutive():
    op = flat_operator(2, 4, u="0.5 + 0*t + 2")   # constant 2.5
    rng = np.random.default_rng(0)
    a = rng.standard_normal((op.dense_dim, op.dense_dim)) \
        + 1j * rng.standard_normal((op.dense_dim, op.dense_dim))
    twice = op.weighted_adjoint(op.weighted_adjoint(a))
    assert np.max(np.abs(twice - a)) <= 1e-12


def test_dense_matrix_matches_apply():
    op = flat_operator(2, 6, u="4")
    rng = np.random.default_rng(2)
    psi = SpinorField(op.lattice, rng.standard_normal((6, 6, 2))
                      + 1j * rng.standard_normal((6, 6, 2)))
    via_apply = op.apply(psi).values.reshape(-1)
    via_dense = op.dense_matrix() @ psi.values.reshape(-1)
    assert np.max(np.abs(via_apply - via_dense)) <= 1e-12


@pytest.mark.parametrize("dim,points,boundary,u", [
    (2, 8, "periodic", None), (3, 4, "clamped", "1+0.1*t"),
    (4, 3, "periodic", None)])
def test_dense_columns_are_apply_on_unit_probes(dim, points, boundary, u):
    op = flat_operator(dim, points, boundary=boundary, u=u)
    n = op.dense_dim
    assert len(dirac._probe_blocks(n)) > 1       # several column blocks
    dense = op.dense_matrix()
    probe = np.zeros(n, dtype=complex)
    for col in range(n):
        probe[col] = 1.0
        psi = SpinorField(op.lattice, probe.reshape(op.lattice.shape + (-1,)))
        assert np.array_equal(dense[:, col], op.apply(psi).values.reshape(-1)), col
        probe[col] = 0.0


@pytest.mark.parametrize("n", [1, 7, 8, 9, 288, 2049])
def test_probe_blocks_cover_every_column_once(n):
    blocks = dirac._probe_blocks(n)
    assert np.array_equal(np.concatenate([np.arange(n)[b] for b in blocks]),
                          np.arange(n))
    assert max(b.stop - b.start for b in blocks) <= max(1, n // 8)


def test_dense_matrix_holds_little_beside_its_result(traced_peak):
    op = flat_operator(2, 32, u="1+0.1*t")
    assert op.dense_dim == 2048
    dense, peak = traced_peak(op.dense_matrix)
    assert peak <= 2.5 * dense.nbytes


def test_dense_matrix_differentiates_per_block_not_per_column(monkeypatch):
    op = flat_operator(2, 12)
    calls = []

    def counted(fld, axis):
        calls.append(axis)
        return gradient(fld, axis)
    monkeypatch.setattr(dirac, "gradient", counted)
    blocks = len(dirac._probe_blocks(op.dense_dim))
    op.dense_matrix()
    assert 0 < len(calls) <= op.lattice.dimension * blocks
    assert len(calls) < op.dense_dim        # a per-column loop makes 2 * 288


@pytest.mark.parametrize("dim,points,boundary,u", [
    (2, 8, "periodic", None), (2, 6, "periodic", "2+sin(t)"),
    (2, 7, "clamped", "1+0.1*t"), (3, (4, 2, 3), "periodic", "1+0.1*t"),
    (3, 4, "clamped", None), (4, 3, "periodic", None)])
def test_hermiticity_residual_is_the_difference_with_the_adjoint(
        dim, points, boundary, u):
    op = flat_operator(dim, points, boundary=boundary, u=u)
    d = op.sparse_matrix()
    k = dirac._site_blocks(op.lattice, op.temporal_commutator())
    for a in (d, k @ d, d + k, _stencil_square(op)):
        assert a.hermiticity_residual() == (a - a.adjoint()).max_abs()


def test_hermiticity_residual_holds_two_diagonals_at_a_time(traced_peak):
    m = _stencil_square(flat_operator(4, 6))
    largest = max(v.nbytes for v in m.diagonals.values())
    _, peak = traced_peak(m.hermiticity_residual)
    # a few temporaries of one diagonal pair, never A^H or A - A^H
    assert len(m.diagonals) >= 30
    assert peak <= 6 * largest


@pytest.mark.parametrize("dim,points,boundary,u", [
    (4, 3, "periodic", None), (2, 8, "periodic", "1 + 0.1*t"),
    (2, 7, "clamped", "1+0.1*t"), (3, 6, "periodic", "2+sin(t)")])
def test_elliptic_square_in_place_equals_the_formula(dim, points, boundary,
                                                     u):
    # same diagonals, in the same order, bit for bit
    op = flat_operator(dim, points, boundary=boundary, u=u)
    d = op.sparse_matrix()
    k = dirac._site_blocks(op.lattice, op.temporal_commutator())
    dk, kd = d @ k, k @ d
    want = -0.5 * (dk @ dk + kd @ kd)
    got = dirac._elliptic_square(d, k)
    assert list(got.diagonals) == list(want.diagonals)
    for key, v in want.diagonals.items():
        assert np.array_equal(got.diagonals[key], v), key


def test_elliptic_square_holds_little_beside_its_result(traced_peak):
    # D K D K takes the sum and the scaling in place: no third product
    # beside it and K D K D (3.54 results when their sum was a new one)
    op = flat_operator(4, 6)
    d = op.sparse_matrix()
    k = dirac._site_blocks(op.lattice, op.temporal_commutator())
    m, peak = traced_peak(dirac._elliptic_square, d, k)
    assert peak <= 2.5 * sum(v.nbytes for v in m.diagonals.values()), peak
