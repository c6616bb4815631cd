import dataclasses
import inspect
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import block_diag

from lorentzlab import dirac
from lorentzlab.clifford import build_gamma, max_abs
from lorentzlab.dirac import (DENSE_LIMIT, ORACLE_LIMIT, RECIPROCAL_TOL,
                              SKEW_TOL, DiracOperator,
                              check_temporal_axioms, elliptic_square,
                              flat_operator, gradient_symbol)
from lorentzlab.lattice import (Lattice, ScalarField, SpinorField, gradient,
                               slices)
from oracles import constant_lapse_spectrum, fundamental_symmetry


def weighted_adjoint(op, a):
    """Adjoint of a dense matrix w.r.t. the metric measure of `op`."""
    w = np.broadcast_to(op.measure_weights(), op.lattice.shape)
    w = np.repeat(w.reshape(-1), op.spinor_dim)
    return (a.conj().T * w[None, :]) / w[:, None]


def _adjoint(a, weights=None):
    """W^-1 A^H W as a StencilOperator, from the diagonals that
    `adjoint_residual` streams."""
    return dirac.StencilOperator(a.lattice, a.spinor_dim,
                                 dict(a._adjoint_diagonals(weights)))


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
    assert k.shape == (1, 1, 2, 2)             # a constant lapse: one site
    assert np.max(np.abs(k - want)) == 0.0
    assert max_abs(k - np.conj(np.swapaxes(k, -1, -2))) == 0.0


def _symbol_loop(rep, grads, u):
    """`gradient_symbol` accumulated one gamma matrix at a time."""
    comps = np.broadcast_arrays(grads[0] * (1.0 / np.sqrt(u)), *grads[1:])
    out = np.zeros(comps[0].shape + (rep.matrix_size,) * 2, dtype=complex)
    for df, g in zip(comps, rep.matrices):
        out += df[..., None, None] * g
    return -1j * out


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_gradient_symbol_is_the_loop_over_gammas(dim):
    # gamma entries are 0, +-1 or +-i and at most two share a matrix entry,
    # so the contraction rounds as the loop does, inf and NaN included
    rep = build_gamma(dim)
    rng = np.random.default_rng(dim)
    grads = list(rng.standard_normal((dim, 7, 5)))
    grads[0][0, :3] = np.inf, -np.inf, np.nan
    grads[-1][1, :3] = np.nan, np.inf, -np.inf
    u = rng.uniform(0.5, 2.0, (7, 1))
    s = rep.matrix_size
    for g in (grads, [1.0] + [0.0] * (dim - 1)):
        with np.errstate(all="ignore"):
            got = dirac.gradient_symbol(rep, g, u)
            want = _symbol_loop(rep, g, u)
        assert got.shape == want.shape == np.broadcast(*g, u).shape + (s, s)
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


@pytest.mark.parametrize("u,expect", [("1", 1.0), ("4", 0.25)])
def test_commutator_square_is_inverse_u(u, expect):
    op = flat_operator(2, 8, u=u)
    k = op.temporal_commutator()
    ksq = np.einsum("...ab,...bc->...ac", k, k)
    want = expect * np.eye(2)
    assert np.max(np.abs(ksq - want)) == 0.0


def test_axiom_suite_flat():
    checks, rep = check_temporal_axioms(flat_operator(2, 16), seed=0)
    assert all(c.passed for c in checks)
    assert rep["hermiticity_residual"] <= 1e-12
    assert rep["u_square_deviation"] <= 1e-13
    assert rep["skew_residual"] <= 1e-12
    assert rep["krein_skew_residual"] <= 1e-12
    assert rep["krein_equiv_residual"] <= 1e-12
    assert rep["commute_residual"] <= 1e-13
    assert rep["elliptic_hermiticity"] <= 1e-12
    assert rep["elliptic_min_eigenvalue"] >= -1e-10


def test_axiom_suite_constant_u():
    checks, rep = check_temporal_axioms(flat_operator(2, 16, u="4"), seed=0)
    assert all(c.passed for c in checks)
    assert rep["u_ax_min"] == pytest.approx(0.25, abs=1e-15)
    assert rep["u_ax_max"] == pytest.approx(0.25, abs=1e-15)
    assert rep["reciprocal_residual"] <= 1e-13


def test_varying_u_reports_honest_defect():
    op = flat_operator(2, 16, box=((-4.0, 4.0), (-4.0, 4.0)),
                       boundary="clamped", u="1 + 0.25*t*t")
    _, rep = check_temporal_axioms(op, seed=0)
    # the continuum defect ~ d(u^{-1/2}) is bounded but nonzero
    assert rep["skew_residual"] > 1e-6
    assert not rep["adjoints_exact"]
    assert any("non-constant" in note for note in rep["notes"])
    assert rep["reciprocal_residual"] <= 1e-13     # pointwise identity still exact
    assert rep["u_square_deviation"] <= 1e-13


@pytest.mark.parametrize("n", [16, 64])
def test_time_dependent_lapse_skew_residual_has_closed_form(n):
    # with a = u^{-1/2}(t), the [D,T] D skew residual on the periodic box
    # is max_i |a_i (a_i - a_{i+-1})| / (2h): it measures the lapse's time
    # derivative, so the verdict stays FAIL and only the value is pinned
    op = flat_operator(2, n, box=((0.0, 2.0 * np.pi),) * 2,
                       boundary="periodic", u="2+sin(t)")
    _, rep = check_temporal_axioms(op, seed=0)
    h = 2.0 * np.pi / n
    a = (2.0 + np.sin(h * np.arange(n))) ** -0.5
    want = max(np.max(np.abs(a * (a - np.roll(a, s)))) for s in (1, -1))
    assert abs(rep["skew_residual"] - want / (2.0 * h)) <= 1e-14
    assert rep["skew_residual"] > SKEW_TOL


def test_reciprocal_residual_above_bound_fails(monkeypatch):
    op = flat_operator(2, 8)
    checks, rep = check_temporal_axioms(op, seed=0)
    assert all(c.passed for c in checks)
    # [D,T] scaled by 1 + 1e-11 keeps every other identity: only the
    # reciprocal u_ax * u_metric = 1 moves, by about 2e-11
    exact = DiracOperator.temporal_commutator
    monkeypatch.setattr(DiracOperator, "temporal_commutator",
                        lambda self: exact(self) * (1.0 + 1e-11))
    bad, rep = check_temporal_axioms(op, seed=0)
    assert rep["reciprocal_residual"] > 2.0 * RECIPROCAL_TOL
    assert [c.name for c in bad if not c.passed] == ["u_ax * u_metric = 1"]


# how each payload value scales when the box is dilated by 2^k with u kept:
# as 1/h, as 1/h^2, or not at all
DILATION_POWERS = {"skew_residual": 1, "krein_skew_residual": 1,
                   "krein_equiv_residual": 1, "elliptic_hermiticity": 2,
                   "elliptic_min_eigenvalue": 2, "commute_residual": 0,
                   "u_ax_min": 0, "u_ax_max": 0, "u_metric_min": 0,
                   "u_metric_max": 0}


@pytest.mark.parametrize("dim,points,boundary", [
    (2, 16, "periodic"), (3, 6, "periodic"), (4, 5, "periodic"),
    (2, 7, "clamped"), (3, 4, "clamped")])
@pytest.mark.parametrize("lapse", ["2", "2+sin(t/{})"],
                         ids=["u=2", "u=2+sin(t)"])
def test_dilating_the_box_scales_the_payload_exactly(dim, points, boundary,
                                                     lapse):
    # box -> 2^k box with u(t) written in the dilated time keeps u's values;
    # every stencil coefficient scales by the power of two 2^-k, so each
    # value scales exactly (==), with no rounding
    def payload(scale):
        box = ((0.0, scale * points),) * dim
        op = flat_operator(dim, points, box=box, boundary=boundary,
                           u=lapse.format(scale))
        return check_temporal_axioms(op, seed=0)[1]
    base = payload(1.0)
    for k in (1, 3, -2):
        scaled = payload(2.0 ** k)
        for key, power in DILATION_POWERS.items():
            assert scaled[key] == base[key] * 2.0 ** (-power * k), (k, key)


# how each payload value scales when the time extent of the box is
# stretched by lam and u(t) is replaced by u(t/lam)/lam^2: K = [D,T] scales
# by lam, while D, J and the metric measure stay as they are
REPARAMETRISATION_POWERS = {
    "hermiticity_residual": 1, "skew_residual": 1, "commute_residual": 1,
    "u_square_deviation": 2, "u_ax_min": 2, "u_ax_max": 2,
    "elliptic_hermiticity": 2, "elliptic_min_eigenvalue": 2,
    "u_metric_min": -2, "u_metric_max": -2, "reciprocal_residual": 0,
    "krein_skew_residual": 0, "krein_equiv_residual": 0,
    "assembly_residual": 0, "adjoints_exact": 0, "notes": 0}


@pytest.mark.parametrize("dim,points,boundary", [
    (2, 16, "periodic"), (3, 6, "periodic"), (4, 5, "periodic"),
    (2, 7, "clamped"), (3, 4, "clamped")])
@pytest.mark.parametrize("lapse", ["1", "2", "1+0.1*{t}", "2+sin({t})"],
                         ids=["u=1", "u=2", "u=1+0.1t", "u=2+sin(t)"])
def test_reparametrising_time_scales_the_payload_exactly(dim, points,
                                                         boundary, lapse):
    # t -> lam t with lam a power of two: the time spacing, u and K change
    # by powers of lam alone, so each value scales exactly (==)
    def payload(lam):
        box = ((0.0, lam * points),) + ((0.0, float(points)),) * (dim - 1)
        u = "(%s)/%r" % (lapse.format(t="(t/%r)" % lam), lam ** 2)
        op = flat_operator(dim, points, box=box, boundary=boundary, u=u)
        return check_temporal_axioms(op, seed=0)[1]
    base = payload(1.0)
    assert set(base) == set(REPARAMETRISATION_POWERS)
    for lam in (2.0, 0.5):
        scaled = payload(lam)
        for key, power in REPARAMETRISATION_POWERS.items():
            want = base[key] if power == 0 else base[key] * lam ** power
            assert scaled[key] == want, (lam, key)


# a lapse that varies along every axis, with a spatial spread under
# U_VARIATION_TOL: accepted as t-only, yet constant along no axis, so its
# operators keep every site
FULL_STORAGE_U = {2: "1 + 1e-13*(t+x)", 4: "1 + 1e-13*(t+x+y+z)"}

# The stencil products may sum in another order than zgemm; measured entry
# differences stay below 2.2 ulps of max|<D>^2| on these lattices.
ELLIPTIC_ULPS = 4


def _site_operator(op, blocks):
    return dirac._site_blocks(op.lattice, np.broadcast_to(
        blocks, op.temporal_commutator().shape))


def _full_commutator(op):
    """K = [D,T] at every site, shape lattice.shape + (s, s)."""
    s = op.spinor_dim
    return np.broadcast_to(op.temporal_commutator(), op.lattice.shape + (s, s))


@pytest.mark.parametrize("dim,points", [(2, 6), (4, 3)])
def test_block_products_match_dense_oracles(dim, points):
    # K = [D,T] and J act per site; the suite's stencil products must agree
    # exactly with the dense block-diagonal products of the dense oracle
    op = flat_operator(dim, points, box=((-3.0, 3.0),) * dim,
                       boundary="clamped", u="1 + 0.1*t")
    _, rep = check_temporal_axioms(op, seed=0)
    s = op.spinor_dim
    d = op.dense_matrix()
    k = block_diag(*_full_commutator(op).reshape(-1, s, s))
    j = np.kron(np.eye(op.lattice.site_count), fundamental_symmetry(op.rep))
    kd, dk, jd = k @ d, d @ k, j @ d
    sd = op.sparse_matrix()
    sk = _site_operator(op, op.temporal_commutator())
    sj = _site_operator(op, fundamental_symmetry(op.rep))
    assert np.array_equal(sd.toarray(), d)
    assert np.array_equal((sk @ sd).toarray(), kd)
    assert np.array_equal((sd @ sk).toarray(), dk)
    assert np.array_equal((sj @ sd).toarray(), jd)
    w = op.measure_weights()
    assert np.array_equal(_adjoint(sd, w).toarray(), weighted_adjoint(op, d))
    assert np.array_equal(_adjoint(sk @ sd, w).toarray(), weighted_adjoint(op, kd))
    assert rep["skew_residual"] == max_abs(weighted_adjoint(op, kd) + kd)
    assert rep["krein_skew_residual"] == max_abs(weighted_adjoint(op, jd) + jd)
    assert rep["krein_equiv_residual"] == max_abs(weighted_adjoint(op, d) + j @ d @ j)
    # <D>^2: the suite's residual is that of the stencil <D>^2 made dense,
    # which is within a few ulps of the zgemm product
    got = _dense_square(op)
    assert rep["elliptic_hermiticity"] == max_abs(got - got.conj().T)
    assert rep["elliptic_min_eigenvalue"] == np.linalg.eigvalsh(
        0.5 * (got + got.conj().T)).min()
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
    k = sp.csr_matrix(block_diag(*_full_commutator(op).reshape(-1, s, s)))
    dk, kd = d @ k, k @ d
    want = -0.5 * (dk @ dk + kd @ kd)
    assert np.array_equal(_dense_square(op), want.toarray())
    _, rep = check_temporal_axioms(op, seed=0)
    assert rep["elliptic_hermiticity"] == max_abs(want - want.conj().T)


ORACLE_CASES = [pytest.param(dim, {2: 6, 3: 4, 4: 3}[dim], boundary, u,
                             id="%d-%s-%s" % (dim, boundary, u))
                for dim, boundary, u in itertools.product(
                    (2, 3, 4), ("periodic", "clamped"), (None, "1 + 0.1*t"))]
# 2-site periodic axes: the +1 and -1 offsets address one column and cancel
ORACLE_CASES += [pytest.param(2, points, "periodic", u,
                              id="%dx%d-periodic-%s" % (points + (u,)))
                 for points in ((2, 5), (5, 2), (2, 2))
                 for u in (None, "1 + 0.1*t")]
# 3-site clamped axes: the +2 and -1 offsets share one key mod 3
ORACLE_CASES += [pytest.param(2, points, "clamped", "1 + 0.1*t",
                              id="%dx%d-clamped" % points)
                 for points in ((3, 5), (5, 3))]


@pytest.mark.parametrize("dim,points,boundary,u", ORACLE_CASES)
def test_sparse_matrix_equals_dense_oracle(dim, points, boundary, u):
    op = flat_operator(dim, points, box=((-3.0, 3.0),) * dim,
                       boundary=boundary, u=u)
    assert np.array_equal(op.sparse_matrix().toarray(), op.dense_matrix())


def _dense_momentum_blocks(m, points, s, waved):
    """Hermitian parts of the blocks F_p^H m F_p of a dense <D>^2.

    Column (x, a) of F_p is the unit plane wave exp(2 pi i p.y / N) over
    the waved axes y, times the unit vectors of the site x over the other
    axes and of spinor row a.  Momenta p come in row-major order.
    """
    f = np.eye(1)
    for axis, n in enumerate(points):
        wave = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
        f = np.kron(f, wave / np.sqrt(n) if axis in waved else np.eye(n))
    # rows (x, a) and columns (c, a), c the momentum along a waved axis and
    # the site along another, split into one (x, a) block per momentum
    still = [a for a in range(len(points)) if a not in waved]
    f = np.kron(f, np.eye(s)).reshape((-1,) + tuple(points) + (s,))
    f = f.transpose([1 + a for a in waved] + [0] + [1 + a for a in still]
                    + [len(points) + 1])
    f = f.reshape(math.prod(points[a] for a in waved), m.shape[0], -1)
    blocks = np.conj(np.swapaxes(f, 1, 2)) @ (m @ f)
    return 0.5 * (blocks + np.conj(np.swapaxes(blocks, 1, 2)))


def _commutator_operator(op):
    """K = [D,T] as a StencilOperator on the stored sites, as the suite
    forms it."""
    return dirac._site_blocks(op.lattice, op.temporal_commutator())


def _stencil_square(op):
    """<D>^2 in stencil form, as check_temporal_axioms forms it."""
    d = op.sparse_matrix()
    k = _commutator_operator(op)
    return elliptic_square(d, k, k @ d)


def _dense_square(op):
    """The dense matrix of the stencil <D>^2."""
    return _stencil_square(op).toarray()


def _suite_residuals(op):
    """(A, B, combine, weights) of each `adjoint_residual` the axiom suite
    takes on op: the skew, both Krein and the <D>^2 Hermiticity residuals."""
    w = op.measure_weights()
    d = op.sparse_matrix()
    kd = _commutator_operator(op) @ d
    j = dirac._site_blocks(op.lattice, np.broadcast_to(
        fundamental_symmetry(op.rep), op.temporal_commutator().shape))
    jd = j @ d
    m = _stencil_square(op)
    return [(kd, kd, np.add, w), (jd, jd, np.add, w), (d, jd @ j, np.add, w),
            (m, m, np.subtract, None)]


@pytest.mark.parametrize("dim,points,u", [
    (2, 8, "1"), (2, 6, "1 + 0.1*t"), (3, 4, "1 + 0.1*t"), (4, 3, "1"),
    (4, 3, "1 + 0.1*t"), (3, 6, "2+sin(t)"),
    # a 2-site spatial axis: its +1 and -1 offsets address one column
    pytest.param(2, (6, 2), "1 + 0.1*t", id="6x2-1 + 0.1*t"),
    pytest.param(3, (4, 2, 3), "1", id="4x2x3-1")])
def test_momentum_blocks_match_dense_eigenvalues(dim, points, u):
    op = flat_operator(dim, points, u=u)
    m = _dense_square(op)
    want = np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min()
    checks, rep = check_temporal_axioms(op, seed=0)
    assert abs(rep["elliptic_min_eigenvalue"] - want) <= 1e-12
    pts, s = op.lattice.points, op.spinor_dim
    # a constant lapse splits <D>^2 into s x s blocks, one per space-time
    # momentum; a lapse u(t) into (N_t s)^2 blocks, one per spatial momentum
    nt = 1 if u == "1" else pts[0]
    blocks = dirac._momentum_blocks(_stencil_square(op), op.waved)
    assert blocks.shape == (op.lattice.site_count // nt,) + (nt * s,) * 2
    # every eigenvalue, grouped by momentum, against the dense <D>^2 taken
    # on the plane waves of each momentum
    got = np.linalg.eigvalsh(0.5 * (blocks + np.conj(np.swapaxes(blocks, 1, 2))))
    dense = _dense_momentum_blocks(m, pts, s, op.waved)
    assert np.max(np.abs(got - np.linalg.eigvalsh(dense))) <= 1e-12
    if u == "2+sin(t)":     # the failing 3-d CLI config
        assert rep["elliptic_min_eigenvalue"] == pytest.approx(-5.0554e-3, abs=1e-7)
        assert not all(c.passed for c in checks)


# (boundary, points, u, stored sites, momentum block array) of lattices
# whose lapse leaves every axis, some axes or none waved, time among them or
# not; a spread under U_VARIATION_TOL unwaves the axes it varies along
WAVED_LATTICES = [
    pytest.param("periodic", (8, 6), "2", (1, 1), (48, 2, 2), id="p-8x6-u=2"),
    pytest.param("periodic", (8, 6), "2+sin(t)", (8, 1), (6, 16, 16),
                 id="p-8x6-u(t)"),
    pytest.param("periodic", (8, 6), "2+1e-13*x", (1, 6), (8, 12, 12),
                 id="p-8x6-u(x)"),
    pytest.param("periodic", (6, 5), "1+1e-13*(t+x)", (6, 5), (1, 60, 60),
                 id="p-6x5-u(t,x)"),
    pytest.param("clamped", (6, 5), "2", (6, 5), (1, 60, 60), id="c-6x5-u=2"),
    pytest.param("periodic", (4, 5, 4), "1+1e-13*x", (1, 5, 1), (16, 10, 10),
                 id="p-4x5x4-u(x)"),
    pytest.param("periodic", (4, 3, 5), "2+0.5*sin(t)+1e-13*y", (4, 1, 5),
                 (3, 40, 40), id="p-4x3x5-u(t,y)"),
    pytest.param("clamped", (4, 3, 5), "2+0.5*sin(t)", (4, 3, 5),
                 (1, 120, 120), id="c-4x3x5-u(t)")]


@pytest.mark.parametrize("boundary,points,u,stored,shape", WAVED_LATTICES)
def test_waved_axes_blocks_match_the_dense_oracle(boundary, points, u, stored,
                                                  shape):
    # one rule stores D and splits <D>^2: one site along each waved axis
    # (periodic, u constant along it), one block per momentum over them
    op = flat_operator(len(points), points, boundary=boundary, u=u)
    assert op.u.shape == op.measure_weights().shape == stored
    m = _stencil_square(op)
    blocks = dirac._momentum_blocks(m, op.waved)
    assert blocks.shape == shape
    got = np.linalg.eigvalsh(0.5 * (blocks + np.conj(np.swapaxes(blocks, 1, 2))))
    dense = m.toarray()
    want = np.linalg.eigvalsh(0.5 * (dense + dense.conj().T))
    tol = 1e-12 * np.abs(want).max()
    assert np.max(np.abs(np.sort(got, axis=None) - want)) <= tol
    # momentum by momentum, against the dense <D>^2 on its plane waves
    oracle = _dense_momentum_blocks(dense, points, op.spinor_dim, op.waved)
    assert np.max(np.abs(got - np.linalg.eigvalsh(oracle))) <= tol
    _, rep = check_temporal_axioms(op, seed=0)
    assert rep["elliptic_min_eigenvalue"] == got.min()
    assert np.array_equal(op.sparse_matrix().toarray(), op.dense_matrix())
    for a, b, combine, w in _suite_residuals(op):
        dense = a.toarray()
        adjoint = dense.conj().T if w is None else weighted_adjoint(op, dense)
        residual = max_abs(combine(adjoint, b.toarray()))
        assert a.adjoint_residual(b, combine, w) == residual, combine


def test_suite_compares_sparse_d_with_probe_oracle(monkeypatch):
    op = flat_operator(2, 6)
    checks, rep = check_temporal_axioms(op, seed=0)
    assert all(c.passed for c in checks) and rep["assembly_residual"] == 0.0
    assert checks[-1].name == "sparse D equals probe-built D"
    assembled = DiracOperator.sparse_matrix

    def perturbed(self):
        d = assembled(self)
        next(iter(d.diagonals.values())).flat[0] += 1e-15
        return d
    monkeypatch.setattr(DiracOperator, "sparse_matrix", perturbed)
    bad, _ = check_temporal_axioms(op, seed=0)
    assert [c.name for c in bad if not c.passed] == \
        ["sparse D equals probe-built D"]
    big = flat_operator(2, 20)
    assert big.dense_dim > ORACLE_LIMIT
    checks, rep = check_temporal_axioms(big, seed=0)
    assert rep["assembly_residual"] is None
    assert "sparse D equals probe-built D" not in [c.name for c in checks]


def test_clamped_elliptic_check_keeps_dense_limit():
    op = flat_operator(2, 64, boundary="clamped")
    assert op.dense_dim > DENSE_LIMIT
    with pytest.raises(ValueError, match="dense"):
        check_temporal_axioms(op)


def test_periodic_elliptic_check_keeps_momentum_budget():
    # one chunk of momentum blocks is held at a time, so only a lattice
    # one block of which overfills MOMENTUM_BYTES_LIMIT, with the two
    # block-sized temporaries of its eigenvalues, is refused: under a lapse
    # u(t) a block is over the N_t time sites
    op = flat_operator(2, (1200, 2), u="2+sin(t)")
    assert dirac.momentum_block_bytes(1200, 2) > dirac.MOMENTUM_BYTES_LIMIT
    limit = dirac.MOMENTUM_BYTES_LIMIT
    assert 3 * dirac.momentum_block_bytes(418, 2) <= limit
    error = dirac.elliptic_size_error
    assert error(flat_operator(2, (418, 2), u="2+sin(t)")) is None
    assert "momentum block" in error(flat_operator(2, (419, 2), u="2+sin(t)"))
    assert error(flat_operator(4, 16, u="2+sin(t)")) is None
    with pytest.raises(ValueError, match="momentum"):
        check_temporal_axioms(op)


def test_a_constant_lapse_is_charged_its_spinor_blocks():
    # u = 1 waves every axis: each momentum block is s x s, however many
    # time sites the lattice has
    for points in ((1200, 2), (4096, 4)):
        op = flat_operator(2, points)
        assert dirac.elliptic_size_error(op) is None
        checks, payload = check_temporal_axioms(op)
        assert all(c.passed for c in checks)
        assert payload["elliptic_min_eigenvalue"] >= dirac.ELLIPTIC_EIG_FLOOR


def _cubic_lattices():
    """(dimension, points) of every cubic lattice the CLI admits before its
    <D>^2 size check: 3 points or more, at most SITE_LIMIT sites."""
    for dim in (2, 3, 4):
        n = 3
        while n ** dim <= dirac.SITE_LIMIT:
            yield dim, n
            n += 1


def test_size_verdicts_and_chunk_counts_on_every_cubic_lattice():
    # the verdicts and chunk counts of the rule before waved axes, written
    # out: under a lapse u(t) a periodic lattice is held to three (N_t s)^2
    # blocks, a clamped one is one dense block; a constant lapse waves every
    # axis of a periodic lattice, whose s x s blocks are never refused
    limit = dirac.MOMENTUM_BYTES_LIMIT
    for dim, n in _cubic_lattices():
        s = build_gamma(dim).matrix_size
        for boundary in ("periodic", "clamped"):
            if boundary == "periodic":
                need = 3 * (n * s) ** 2 * 16
                want = None if need <= limit else (
                    "one <D>^2 momentum block would need about %d bytes of "
                    "working set; limit is %d (use a coarser lattice)"
                    % (need, limit))
                verdicts = {"2+sin(t)": want, "1": None}
                # a constant lapse waves every axis, a lapse u(t) space
                counts = {tuple(range(dim)): math.ceil(
                              n ** dim / max(1, limit // (8 * s * s * 16))),
                          tuple(range(1, dim)): math.ceil(
                              n ** (dim - 1) / max(1, limit // (8 * need // 3)))}
            else:
                size = n ** dim * s
                want = None if size <= DENSE_LIMIT else (
                    "dense eigvalsh would be %d^2; limit is %d^2 (use a "
                    "coarser lattice)" % (size, DENSE_LIMIT))
                verdicts = {"2+sin(t)": want, "1": want}
                counts = {(): 1}
            for u, verdict in verdicts.items():
                op = flat_operator(dim, n, boundary=boundary, u=u)
                assert dirac.elliptic_size_error(op) == verdict, (dim, n, boundary, u)
            m = dirac.StencilOperator(op.lattice, s, {})
            for waved, count in counts.items():
                assert len(dirac._momentum_chunks(m, waved)) == count, waved


def test_suite_charges_the_blocks_of_the_waved_axes():
    # a spread under U_VARIATION_TOL unwaves the axes it varies along: the
    # suite is held to the blocks it would build
    op = flat_operator(4, 8, u="1+1e-13*(t+x+y+z)")
    assert op.waved == ()
    with pytest.raises(ValueError, match="dense eigvalsh would be 16384"):
        check_temporal_axioms(op)
    # with time and y waved, the block is over x alone: 419 x 2 overfills
    # three momentum blocks, as a lapse u(t) over 419 time sites does
    error = dirac.elliptic_size_error
    assert error(flat_operator(2, (4, 418), u="1+1e-15*x")) is None
    op = flat_operator(2, (4, 419), u="1+1e-15*x")
    assert op.waved == (0,)
    assert error(op) == error(flat_operator(2, (419, 4), u="2+sin(t)"))
    with pytest.raises(ValueError, match="momentum block"):
        check_temporal_axioms(op)


@pytest.mark.parametrize("dim,points,u", [(2, 8, "1 + 0.1*t"), (3, 4, "2+sin(t)"),
                                          (4, 5, "2")])
def test_elliptic_minimum_is_the_same_in_chunks(monkeypatch, dim, points, u):
    op = flat_operator(dim, points, u=u)
    pts, s = op.lattice.points, op.spinor_dim
    m = _stencil_square(op)
    assert len(dirac._momentum_chunks(m, op.waved)) == 1
    whole = check_temporal_axioms(op, seed=0)[1]["elliptic_min_eigenvalue"]
    blocks = dirac._momentum_blocks(m, op.waved)
    # the smallest limit that still admits the lattice: chunks of one
    # (N_t s)^2 block, or under the constant lapse of nine s x s blocks
    monkeypatch.setattr(dirac, "MOMENTUM_BYTES_LIMIT",
                        3 * dirac.momentum_block_bytes(pts[0], s))
    chunks = dirac._momentum_chunks(m, op.waved)
    assert len(chunks) >= 8
    assert np.array_equal(np.concatenate(
        [dirac._momentum_blocks(m, op.waved, momenta=c) for c in chunks]), blocks)
    assert check_temporal_axioms(op, seed=0)[1]["elliptic_min_eigenvalue"] == whole


def test_elliptic_square_positive_with_zero_mode():
    op = flat_operator(2, 8)
    m = _dense_square(op)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_lapse_must_be_finite(bad):
    lat = Lattice(((0.0, 8.0), (0.0, 8.0)), (8, 8))
    u = np.where(lat.coordinate_array(0) > 4, bad, 1.0)
    with pytest.raises(ValueError, match="finite and strictly positive"):
        DiracOperator(build_gamma(2), lat, ScalarField(lat, u))


def test_lapse_from_another_lattice_rejected():
    # same shape, another box: its samples are not u at this lattice's sites
    lat = Lattice(((0.0, 8.0), (0.0, 8.0)), (8, 8))
    other = Lattice(((-4.0, 4.0), (-4.0, 4.0)), (8, 8))
    with pytest.raises(ValueError, match="different lattice"):
        DiracOperator(build_gamma(2), lat,
                      ScalarField.from_expression(other, "2+sin(t)"))
    op = DiracOperator(build_gamma(2), lat,
                       ScalarField.from_expression(lat, "2+sin(t)"))
    assert np.array_equal(op.u[:, 0], 2.0 + np.sin(lat.coordinate_array(0)[:, 0]))


def test_weighted_adjoint_is_involutive():
    # random entries on D's diagonals, under weights that vary with t
    op = flat_operator(2, 4, u="2 + sin(t)")
    rng = np.random.default_rng(0)
    a = dirac.StencilOperator(op.lattice, op.spinor_dim, {
        key: rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
        for key, v in op.sparse_matrix().diagonals.items()})
    w = op.measure_weights()
    twice = _adjoint(_adjoint(a, w), w)
    assert np.max(np.abs(twice.toarray() - a.toarray())) <= 1e-12
    assert np.array_equal(_adjoint(a, w).toarray(),
                          weighted_adjoint(op, a.toarray()))


def test_dense_matrix_matches_apply():
    op = flat_operator(2, 6, u="4")
    rng = np.random.default_rng(2)
    psi = SpinorField(op.lattice, rng.standard_normal((6, 6, 2))
                      + 1j * rng.standard_normal((6, 6, 2)))
    via_apply = op.apply(psi).values.reshape(-1)
    via_dense = op.dense_matrix() @ psi.values.reshape(-1)
    assert np.max(np.abs(via_apply - via_dense)) <= 1e-12


@pytest.mark.parametrize("boundary,u", [("periodic", None),
                                       ("clamped", "1+0.1*t")])
def test_apply_on_a_stack_is_apply_on_each_member(boundary, u):
    op = flat_operator(3, 4, boundary=boundary, u=u)
    rng = np.random.default_rng(3)
    shape = op.lattice.shape + (5, op.spinor_dim)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = op.apply(SpinorField(op.lattice, stack)).values
    assert got.shape == shape
    for i in range(5):
        member = op.apply(SpinorField(op.lattice, stack[..., i, :])).values
        assert np.array_equal(got[..., i, :], member), i


@pytest.mark.parametrize("dim,points,boundary,u", [
    (2, 8, "periodic", None), (3, 4, "clamped", "1+0.1*t"),
    (4, 3, "periodic", None)])
def test_dense_columns_are_apply_on_unit_probes(dim, points, boundary, u):
    op = flat_operator(dim, points, boundary=boundary, u=u)
    n = op.dense_dim
    assert len(slices(n, n // 8)) > 1       # several column blocks
    dense = op.dense_matrix()
    probe = np.zeros(n, dtype=complex)
    for col in range(n):
        probe[col] = 1.0
        psi = SpinorField(op.lattice, probe.reshape(op.lattice.shape + (-1,)))
        assert np.array_equal(dense[:, col], op.apply(psi).values.reshape(-1)), col
        probe[col] = 0.0


@pytest.mark.parametrize("n", [1, 7, 8, 9, 288, 2049])
def test_probe_blocks_cover_every_column_once(n):
    # the column blocks of `dense_matrix`
    blocks = slices(n, n // 8)
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
    blocks = len(slices(op.dense_dim, op.dense_dim // 8))
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
    k = _commutator_operator(op)
    for a in (d, k @ d, _stencil_square(op)):
        assert a.adjoint_residual(a, np.subtract) == max_abs(
            a.toarray() - _adjoint(a).toarray())


def test_hermiticity_residual_holds_two_diagonals_at_a_time(traced_peak):
    op = flat_operator(4, 6, u=FULL_STORAGE_U[4])
    assert op.measure_weights().shape == op.lattice.shape
    m = _stencil_square(op)
    largest = max(v.nbytes for v in m.diagonals.values())
    _, peak = traced_peak(m.adjoint_residual, m, np.subtract)
    # a few temporaries of one diagonal pair, never A^H or A - A^H
    assert len(m.diagonals) >= 30
    assert peak <= 6 * largest


@pytest.mark.parametrize("dim,points,boundary,u", [
    (4, 3, "periodic", None), (2, 8, "periodic", "1 + 0.1*t"),
    (2, 7, "clamped", "1+0.1*t"), (3, 6, "periodic", "2+sin(t)"),
    (2, (3, 5), "clamped", "1+0.1*t")])
def test_elliptic_square_in_place_equals_the_formula(dim, points, boundary,
                                                     u):
    # same diagonals, in the same order, bit for bit
    op = flat_operator(dim, points, boundary=boundary, u=u)
    d = op.sparse_matrix()
    k = _commutator_operator(op)
    dk, kd = d @ k, k @ d
    # the sum of the two products, as the diagonals of the second were
    # added into those of the first
    total = dict((dk @ dk).diagonals)
    for (o, kk), v in (kd @ kd).diagonals.items():
        dirac._accumulate(total, op.lattice, o, kk, v)
    want = {key: -0.5 * v for key, v in total.items()}
    got = elliptic_square(d, k, kd)
    assert list(got.diagonals) == list(want)
    for key, v in want.items():
        assert np.array_equal(got.diagonals[key], v), key


def test_axiom_suite_forms_k_d_once(monkeypatch):
    # K D, J D, J D J, D K, (D K)^2 and (K D)^2: the skew check and <D>^2
    # share one K D; `@` and the diagonal stream of (K D)^2 are one path
    calls = []
    product = dirac.StencilOperator.product_diagonals

    def counted(self, other):
        calls.append(1)
        return product(self, other)
    monkeypatch.setattr(dirac.StencilOperator, "product_diagonals", counted)
    check_temporal_axioms(flat_operator(2, 6), seed=0)
    assert len(calls) == 6


@pytest.mark.parametrize("dim,points,boundary", [
    (2, 6, "periodic"), (2, 7, "clamped"), (3, (4, 2, 3), "periodic"),
    (4, 3, "clamped"), (2, (5, 3), "clamped")])
def test_product_diagonals_are_the_one_pass_product(dim, points, boundary):
    # grouped by output diagonal, yet bit for bit the accumulation over all
    # pairs in pair order, keys in the order they first appear
    op = flat_operator(dim, points, boundary=boundary, u="1+0.1*t")
    d = op.sparse_matrix()
    k = _commutator_operator(op)
    for a, b in ((d, d), (d, k), (k, d), (d @ k, d @ k)):
        want = {}
        for (oa, ka), va in a.diagonals.items():
            for (ob, kb), vb in b.diagonals.items():
                dirac._accumulate(want, op.lattice,
                                  tuple(x + y for x, y in zip(oa, ob)),
                                  ka ^ kb, va * dirac._shift(vb, oa, ka))
        got = list(a.product_diagonals(b))
        assert [key for key, _ in got] == list(want)
        for key, v in got:
            assert np.array_equal(v, want[key]), key


@pytest.mark.parametrize("dim,points,boundary,u", [
    (2, 6, "periodic", None), (2, 2, "periodic", None),
    (2, (3, 5), "clamped", None), (2, (5, 3), "clamped", None),
    (3, 4, "clamped", "2+sin(t)"), (4, 3, "clamped", None)])
def test_every_diagonal_key_is_a_site_offset_mod_n(dim, points, boundary, u):
    # one index rule on both boundaries: a clamped box is zero coefficients,
    # never an unreduced offset
    op = flat_operator(dim, points, boundary=boundary, u=u)
    d = op.sparse_matrix()
    k = _commutator_operator(op)
    kd = k @ d
    adjoint = [key for key, _ in d._adjoint_diagonals(op.measure_weights())]
    assert len(set(adjoint)) == len(adjoint) == len(d.diagonals)
    for keys in (d.diagonals, kd.diagonals,
                 elliptic_square(d, k, kd).diagonals, adjoint):
        for o, _ in keys:
            assert all(0 <= x < n for x, n in zip(o, op.lattice.points)), o


def test_the_stencil_algebra_never_reads_the_boundary():
    # the boundary lives in the coefficients `_stencil` returns alone, and
    # the split of <D>^2 in the waved axes of D
    for name in ("_site_key", "_accumulate", "_shift", "StencilOperator",
                 "_momentum_blocks", "_momentum_chunks", "_min_eigenvalue"):
        assert ".boundary" not in inspect.getsource(getattr(dirac, name)), name
    assert not hasattr(dirac, "_block_time")


@pytest.mark.parametrize("boundary,points,u,calls", [
    ("clamped", 20, "2+sin(t)", 0), ("periodic", (24, 12), "2+1e-13*(t+x)", 0),
    ("periodic", 20, "2+sin(t)", 0), ("clamped", 6, "2+sin(t)", 1)])
def test_axiom_suite_takes_the_spectrum_from_blocks_alone(monkeypatch,
                                                          boundary, points,
                                                          u, calls):
    # no operator is made dense for the <D>^2 minimum, on any boundary or
    # with no axis waved: the one toarray is that of D, compared with the
    # probe-built D up to ORACLE_LIMIT
    op = flat_operator(2, points, boundary=boundary, u=u)
    assert (op.dense_dim <= ORACLE_LIMIT) == (calls == 1)
    made = []
    dense = dirac.StencilOperator.toarray

    def counted(self):
        made.append(self)
        return dense(self)
    monkeypatch.setattr(dirac.StencilOperator, "toarray", counted)
    check_temporal_axioms(op, seed=0)
    assert len(made) == calls


def test_elliptic_square_holds_little_beside_its_result(traced_peak):
    # D K D K takes each diagonal of K D K D as it is formed, and the sum
    # and the scaling in place (2.04 results with K D K D held whole, 3.54
    # when their sum was a new one)
    op = flat_operator(4, 6, u=FULL_STORAGE_U[4])
    assert op.measure_weights().shape == op.lattice.shape
    d = op.sparse_matrix()
    k = _commutator_operator(op)
    m, peak = traced_peak(elliptic_square, d, k, k @ d)
    assert peak <= 1.5 * sum(v.nbytes for v in m.diagonals.values()), peak


def test_axiom_suite_holds_each_operator_only_while_it_is_read(traced_peak,
                                                              monkeypatch):
    # 3.17 results of <D>^2 when every operator lived to the end.  Every
    # site is kept by force: a lapse that varies along every axis would
    # leave no axis waved, and <D>^2 one 16384^2 block
    _full_storage(monkeypatch)
    op = flat_operator(4, 8, u="1 + 1e-13*t")
    assert op.measure_weights().shape == op.lattice.shape
    result = sum(v.nbytes for v in _stencil_square(op).diagonals.values())
    _, peak = traced_peak(check_temporal_axioms, op, 0)
    assert peak <= 2.5 * result, peak / result


@pytest.mark.parametrize("boundary,u,stored", [
    ("periodic", "2", (1, 1)), ("periodic", "2+sin(t)", (6, 1)),
    ("clamped", "2+sin(t)", (6, 5))], ids=["once", "per-slice", "every-site"])
def test_operator_hands_out_its_stored_sites(boundary, u, stored):
    # D.u is the lapse on the stored sites, read-only, and [D,T] is its
    # symbol there: broadcast over the lattice, that is the symbol of the
    # whole lapse field bit for bit
    op = flat_operator(2, (6, 5), boundary=boundary, u=u)
    lat, s = op.lattice, op.spinor_dim
    assert op.u.shape == stored
    assert not op.u.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        op.u[0, 0] = 1.0
    full = ScalarField.from_expression(lat, u).values
    want = gradient_symbol(op.rep, [1.0, 0.0], full)
    got = np.broadcast_to(op.temporal_commutator(), lat.shape + (s, s))
    assert got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint8),
                          want.view(np.uint8))


def test_translation_invariant_operators_are_stored_per_time_slice():
    # an exactly constant lapse is stored once, one with no spatial
    # variation once per time slice: constancy is exact equality
    for u, stored in ((None, (1, 1, 1, 1)), ("2", (1, 1, 1, 1)),
                      ("2+sin(t)", (8, 1, 1, 1)), ("1+1e-15*t", (8, 1, 1, 1))):
        op = flat_operator(4, 8, u=u)
        assert op.measure_weights().shape == stored, u
        # a copy: a view of the stored sites would keep the lattice-sized u
        assert op.u.base is None
        assert op.u.shape == stored and not op.u.flags.writeable
        for a in (op.sparse_matrix(), _stencil_square(op)):
            assert {v.shape for v in a.diagonals.values()} == {stored + (4,)}
        # a clamped lattice keeps every site, whatever the lapse
        kept = flat_operator(4, 4, boundary="clamped", u=u)
        shapes = {v.shape for v in kept.sparse_matrix().diagonals.values()}
        assert shapes == {kept.lattice.shape + (4,)}, u
    # and so does a lapse that varies along every axis
    kept = flat_operator(4, 4, u=FULL_STORAGE_U[4])
    shapes = {v.shape for v in kept.sparse_matrix().diagonals.values()}
    assert shapes == {kept.lattice.shape + (4,)}


@pytest.mark.parametrize("dim,points,u", [
    (2, 6, None), (3, (4, 3, 2), "2+sin(t)"), (2, 5, FULL_STORAGE_U[2]),
    (3, 4, None), (2, (4, 3), None)])
def test_shift_is_the_shift_of_the_broadcast_sites(dim, points, u):
    # an axis stored once is not rolled: the shift of the stored sites is
    # the stored sites of the shift of the full, broadcast array
    op = flat_operator(dim, points, u=u)
    lat, s = op.lattice, op.spinor_dim
    v = op.sparse_matrix().diagonals[((1,) + (0,) * (dim - 1), 1)]
    w = op.measure_weights()
    full_v = np.broadcast_to(v, lat.shape + (s,))
    full_w = np.broadcast_to(w, lat.shape)
    for sites in itertools.product((-1, 0, 1, 2), repeat=dim):
        for k in range(s):
            got = dirac._shift(v, sites, k)
            assert got.shape == v.shape
            assert np.array_equal(got, dirac._shift(full_v, sites, k)[op._stored])
        assert np.array_equal(dirac._shift(w, sites),
                              dirac._shift(full_w, sites)[op._stored])


def test_axiom_suite_per_time_slice_holds_one_momentum_chunk(traced_peak):
    # stored per time slice, the operators are a few kB at 8^4: what is left
    # is one chunk of momentum blocks and its Hermitian-part temporary (the
    # full-lattice diagonals peaked at 17.3 MB here)
    op = flat_operator(4, 8, u="1+1e-15*t")
    assert op.measure_weights().shape == (8, 1, 1, 1)
    _, peak = traced_peak(check_temporal_axioms, op, 0)
    assert peak <= 2.5 * dirac.MOMENTUM_BYTES_LIMIT / 8, peak


def test_constant_lapse_suite_holds_one_chunk_of_spinor_blocks(traced_peak):
    # stored once, the operators are a few hundred bytes at 8^4, and the
    # 4096 s x s momentum blocks (1 MiB) fit one chunk: what is left is that
    # chunk, its Hermitian-part temporary and the copy eigvalsh works on
    op = flat_operator(4, 8)
    assert op.measure_weights().shape == (1, 1, 1, 1)
    assert len(dirac._momentum_chunks(_stencil_square(op), op.waved)) == 1
    chunk = 8 ** 4 * dirac.momentum_block_bytes(1, 4)
    _, peak = traced_peak(check_temporal_axioms, op, 0)
    assert peak <= 2.5 * chunk, peak / chunk


def test_hermitian_part_is_formed_without_a_chunk_sized_temporary(traced_peak):
    # the lower triangle eigvalsh reads is symmetrised in place, a row at a
    # time: the suite holds one chunk of (N_t s)^2 blocks and little else
    # (2.04 chunks when the conjugate transpose was added whole), and the
    # eigenvalues are those of the whole Hermitian part bit for bit
    op = flat_operator(2, (128, 4), u="2+sin(t)")
    m = _stencil_square(op)
    (chunk,) = dirac._momentum_chunks(m, op.waved)
    blocks = dirac._momentum_blocks(m, op.waved, chunk)
    assert blocks.shape == (4, 256, 256)
    whole = np.linalg.eigvalsh(
        (blocks + np.conj(np.swapaxes(blocks, -1, -2))) * 0.5).min()
    assert dirac._min_eigenvalue(blocks) == whole
    _, peak = traced_peak(check_temporal_axioms, op, 0)
    assert peak <= 1.25 * blocks.nbytes, peak / blocks.nbytes


def test_commute_check_holds_one_draw_at_a_time(traced_peak):
    # each random (f, psi) draw and its residual are freed before the next
    # draw: at 16^4 the suite peaks there, at about four spinor fields (5.17
    # when a draw's fields lived on while the next was drawn)
    op = flat_operator(4, 16)
    field = op.lattice.site_count * op.spinor_dim * 16
    _, peak = traced_peak(check_temporal_axioms, op, 0)
    assert peak <= 4.5 * field, peak / field


def _storage(monkeypatch, stored):
    """Make every DiracOperator built from now on keep the sites
    stored(dimension) indexes."""
    monkeypatch.setattr(dirac, "_stored_sites",
                        lambda lattice, waved: stored(lattice.dimension))


def _per_slice_storage(monkeypatch):
    _storage(monkeypatch, lambda dim: (slice(None),) + (slice(0, 1),) * (dim - 1))


def _full_storage(monkeypatch):
    _storage(monkeypatch, lambda dim: (slice(None),) * dim)


def _block_spectra(op):
    """Eigenvalues of the suite's momentum blocks of op, one row per
    spatial momentum: the s x s blocks of a lapse stored once are gathered
    over the time momenta of each spatial momentum, and each row sorted."""
    blocks = dirac._momentum_blocks(_stencil_square(op), op.waved)
    values = np.linalg.eigvalsh(0.5 * (blocks + np.conj(np.swapaxes(blocks, 1, 2))))
    if len(op.waved) == op.lattice.dimension:
        nt = op.lattice.points[0]
        values = values.reshape(nt, -1, op.spinor_dim).swapaxes(0, 1)
    return np.sort(values.reshape(values.shape[0], -1), axis=1)


@pytest.mark.parametrize("dim,points,u", [
    (4, 5, None), (4, 8, None), (2, 16, None), (3, 6, "2+sin(t)")])
def test_storage_shape_leaves_every_payload_value_bitwise_equal(
        monkeypatch, dim, points, u):
    # once, per time slice and at every site: every payload value but the
    # <D>^2 minimum is bitwise the same on each storage shape.  The minimum
    # comes from s x s blocks where u is stored once, so there it is held
    # to the closed form and the block spectra to the per-slice ones
    runs, spectra = [], []
    for force in (None, _per_slice_storage, _full_storage):
        if force is not None:
            force(monkeypatch)
        op = flat_operator(dim, points, u=u)
        checks, payload = check_temporal_axioms(op, seed=0)
        runs.append((op.measure_weights().shape, checks, payload))
        if force is not _full_storage:
            spectra.append(_block_spectra(op))
    shapes = [shape for shape, _, _ in runs]
    assert shapes[1:] == [(points,) + (1,) * (dim - 1), (points,) * dim]
    constant = u is None
    assert shapes[0] == ((1,) * dim if constant else shapes[1])
    minima = [payload.pop("elliptic_min_eigenvalue") for _, _, payload in runs]
    for _, checks, _ in runs:
        assert checks[8].name == "<D>^2 non-negative"
        checks[8] = dataclasses.replace(checks[8], value=None)
    # repr tells -0.0 from 0.0 and prints every float round-trip exact
    assert len({repr(payload) for _, _, payload in runs}) == 1
    assert len({repr(checks) for _, checks, _ in runs}) == 1
    if constant:
        want = constant_lapse_spectrum((points,) * dim, (1.0,) * dim,
                                       op.spinor_dim, 1.0)
        for minimum in minima:
            assert abs(minimum - want.min()) <= 1e-12 * want.max()
        assert np.max(np.abs(spectra[0] - spectra[1])) <= 1e-12 * want.max()
    else:
        assert len(set(map(repr, minima))) == 1
        assert np.array_equal(spectra[0], spectra[1])


@pytest.mark.parametrize("dim,points,u", [
    (2, 16, None), (4, 3, None), (3, 4, "2+sin(t)"),
    pytest.param(2, (6, 2), "1 + 0.1*t", id="6x2-1 + 0.1*t")])
def test_reductions_and_toarray_agree_on_both_storage_shapes(
        monkeypatch, dim, points, u):
    stored = _suite_residuals(flat_operator(dim, points, u=u))
    # a lapse stored once is also compared with its per-slice storage
    for force in (_per_slice_storage, _full_storage):
        force(monkeypatch)
        forced = _suite_residuals(flat_operator(dim, points, u=u))
        for (a, b, combine, w), (fa, fb, _, fw) in zip(stored, forced):
            assert a.adjoint_residual(b, combine, w) == \
                fa.adjoint_residual(fb, combine, fw)
            assert np.array_equal(a.toarray(), fa.toarray())
            assert np.array_equal(b.toarray(), fb.toarray())


@pytest.mark.parametrize("dim,points,boundary,u,force", [
    (2, 6, "periodic", None, None), (2, 6, "periodic", None, _per_slice_storage),
    (2, 6, "periodic", None, _full_storage),
    (3, 4, "periodic", "2+sin(t)", None), (3, 4, "periodic", "2+sin(t)", _full_storage),
    (4, 3, "periodic", None, None), (2, 7, "clamped", "1+0.1*t", None),
    (3, 4, "clamped", None, None), (2, (5, 3), "clamped", "1+0.1*t", None)],
    ids=["2-periodic-once", "2-periodic-per-slice", "2-periodic-full",
         "3-periodic-u(t)", "3-periodic-u(t)-full", "4-periodic-once",
         "2-clamped-u(t)", "3-clamped", "5x3-clamped-u(t)"])
def test_adjoint_residual_is_max_abs_of_the_dense_form(monkeypatch, dim, points,
                                                       boundary, u, force):
    # every residual the suite takes, against the dense matrices
    if force is not None:
        force(monkeypatch)
    op = flat_operator(dim, points, boundary=boundary, u=u)
    for a, b, combine, w in _suite_residuals(op):
        dense = a.toarray()
        adjoint = dense.conj().T if w is None else weighted_adjoint(op, dense)
        want = max_abs(combine(adjoint, b.toarray()))
        assert a.adjoint_residual(b, combine, w) == want, combine


def test_adjoint_residual_counts_an_unmet_diagonal_of_b():
    # B's diagonal ((1, 0), 1) meets no diagonal of the adjoint of A, and it
    # holds the largest entry
    lat = Lattice(((0.0, 4.0), (0.0, 4.0)), (4, 4))
    a = dirac.StencilOperator(lat, 2, {((0, 0), 0): np.ones((4, 4, 2))})
    b = dirac.StencilOperator(lat, 2, {((0, 0), 0): np.ones((4, 4, 2)),
                                       ((1, 0), 1): np.full((4, 4, 2), -5.0)})
    for combine in (np.add, np.subtract):
        want = max_abs(combine(a.toarray().conj().T, b.toarray()))
        assert a.adjoint_residual(b, combine) == want == 5.0


def test_weighted_adjoint_residual_holds_few_diagonals_at_a_time(traced_peak):
    # a few temporaries of one adjoint diagonal and its partner in B, never
    # the whole adjoint or sum (16.1 largest diagonals when both were held)
    op = flat_operator(4, 6, u=FULL_STORAGE_U[4])
    w = op.measure_weights()
    assert w.shape == op.lattice.shape
    kd = _commutator_operator(op) @ op.sparse_matrix()
    largest = max(v.nbytes for v in kd.diagonals.values())
    _, peak = traced_peak(kd.adjoint_residual, kd, np.add, w)
    assert len(kd.diagonals) >= 8
    assert peak <= 8 * largest, peak / largest


def test_axiom_suite_takes_the_oracle_residual_in_place(traced_peak):
    # 512 dense dimensions: the probe-built D, the stencil D made dense and
    # the difference were 3.02 dense matrices at once
    op = flat_operator(2, 16)
    assert op.dense_dim == ORACLE_LIMIT
    _, peak = traced_peak(check_temporal_axioms, op, 0)
    assert peak <= 2.5 * 16 * ORACLE_LIMIT ** 2, peak


def _nan_stencil(first):
    """4x4 periodic: ones on ((0,0),0) and on ((1,0),1) but one NaN there,
    with the NaN diagonal first or last."""
    lat = Lattice(((0.0, 4.0), (0.0, 4.0)), (4, 4))
    ones, bad = np.ones((4, 4, 2)), np.ones((4, 4, 2))
    bad[1, 2, 0] = np.nan
    diagonals = [(((0, 0), 0), ones), (((1, 0), 1), bad)]
    if first:
        diagonals.reverse()
    return dirac.StencilOperator(lat, 2, dict(diagonals))


@pytest.mark.parametrize("first", [True, False], ids=["nan-first", "nan-last"])
def test_stencil_reductions_keep_a_nan(first):
    # the NaN on the adjoint's first or last diagonal, on B's, or on both;
    # as B, its diagonal ((1, 0), 1) meets no diagonal of the adjoint
    a = _nan_stencil(first)
    clean = dirac.StencilOperator(a.lattice, 2, {
        key: np.ones_like(v) for key, v in a.diagonals.items()})
    for combine in (np.add, np.subtract):
        for x, y in ((a, a), (a, clean), (clean, a)):
            assert np.isnan(x.adjoint_residual(y, combine)), (combine, x is a)


def test_a_nan_commute_residual_fails_the_suite(monkeypatch):
    # only the second of the three draws is NaN: a running max() kept 0.0
    draws = []
    real = dirac.random_spinor

    def spinor(lattice, spinor_dim, rng):
        psi = real(lattice, spinor_dim, rng)
        draws.append(1)
        if len(draws) == 2:
            psi.values[0, 0, 0] = np.nan
        return psi
    monkeypatch.setattr(dirac, "random_spinor", spinor)
    checks, rep = check_temporal_axioms(flat_operator(2, 6), seed=0)
    assert np.isnan(rep["commute_residual"])
    failed = [c.name for c in checks if not c.passed]
    assert failed == ["[D,T] commutes with functions"]
