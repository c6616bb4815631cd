import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from lorentzlab.lattice import Lattice
from lorentzlab import moyal
from lorentzlab.moyal import (DECAY_REFUSE, TAIL_WARN, ThetaMatrix,
                              _boundary_fraction, _genlaguerre,
                              associativity_check,
                              basis_field, basis_stack, basis_values,
                              center_time_check,
                              commutation_check, cross_engine_check,
                              damped_commutator_closed_form,
                              delta_algebra_check, gaussian_oracle_check,
                              gaussian_star_closed_form, involution_check,
                              moyal_grid, operator_norm, project,
                              run_moyal_suite, star_matrix_basis,
                              star_quadrature, star_twisted, synthesize,
                              trace_check)

THETA = 0.5


def _traced_peak(fn, *args):
    """fn(*args) and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ------------------------------------------------------------ Theta matrix

def test_theta_validation():
    with pytest.raises(ValueError, match="antisymmetric"):
        ThetaMatrix([[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ValueError, match="antisymmetric"):
        ThetaMatrix([[1e-300, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="square"):
        ThetaMatrix(np.zeros((2, 3)))


def test_theta_entries_frozen():
    th = ThetaMatrix.plane_block(THETA)
    with pytest.raises(ValueError):
        th.entries[0, 1] = 1.0


def test_theta_commutative_time():
    assert ThetaMatrix(np.zeros((3, 3))).commutative_time()
    assert ThetaMatrix.plane_block(THETA, 3, axes=(1, 2)).commutative_time()
    assert not ThetaMatrix.plane_block(THETA, 3, axes=(0, 1)).commutative_time()
    assert not ThetaMatrix.plane_block(THETA, 2).commutative_time()


def test_theta_scalar_2d():
    assert ThetaMatrix.plane_block(0.5).scalar_2d() == 0.5
    with pytest.raises(ValueError):
        ThetaMatrix(np.zeros((3, 3))).scalar_2d()


# ----------------------------------------------------------- star engines

def test_gaussian_closed_form_twisted():
    assert gaussian_oracle_check() <= 1e-8


def test_gaussian_closed_form_quadrature():
    lat = moyal_grid(7.0, 96)
    a, b = 0.5, 0.8
    f = lambda x, y: np.exp(-a * (x * x + y * y))
    h = lambda x, y: np.exp(-b * (x * x + y * y))
    pts = [(0.0, 0.0), (0.7, -0.2), (1.3, 0.9)]
    r2 = np.array([x * x + y * y for x, y in pts])
    want = gaussian_star_closed_form(a, b, THETA, r2)
    for slot in ("first", "second"):
        got = star_quadrature(f, h, THETA, pts, lat, slot=slot)
        assert np.max(np.abs(got - want)) <= 1e-8
    for factor in (f, h):
        values = factor(**lat.environment())
        assert _boundary_fraction(values, lat).max() <= DECAY_REFUSE


def test_zero_theta_is_pointwise_product():
    lat = moyal_grid(7.0, 64)
    x, y = lat.coordinate_array(0), lat.coordinate_array(1)
    fv = (1.0 + x) * np.exp(-(x * x + y * y) / 2.0)
    hv = y * np.exp(-(x * x + y * y) / 1.5)
    got, _ = star_twisted(fv, hv, lat, 0.0)
    assert np.max(np.abs(got.values - fv * hv)) <= 1e-13


def test_slot_mirror_consistency():
    lat = moyal_grid(7.0, 96)
    f = lambda x, y: x * np.exp(-(x * x + y * y) / 2.0)
    h = lambda x, y: (1.0 - y) * np.exp(-(x * x + y * y) / 3.0)
    pts = [(0.2, 0.1), (-0.5, 0.8)]
    first = star_quadrature(f, h, THETA, pts, lat, slot="first")
    second = star_quadrature(f, h, THETA, pts, lat, slot="second")
    assert np.max(np.abs(first - second)) <= 1e-8


def test_quadrature_refuses_undamped_factor():
    lat = moyal_grid(7.0, 48)
    f = lambda x, y: np.cos(x) + 0 * y
    h = lambda x, y: np.sin(y) + 0 * x
    for slot in ("first", "second"):
        with pytest.raises(ValueError, match="decay"):
            star_quadrature(f, h, THETA, [(0.0, 0.0)], lat, slot=slot)


def test_quadrature_slot_needs_callable_shift():
    lat = moyal_grid(7.0, 48)
    x, y = lat.coordinate_array(0), lat.coordinate_array(1)
    fv = np.exp(-(x * x + y * y))         # samples only: cannot be shifted
    h = lambda x, y: np.exp(-(x * x + y * y) / 2.0)
    with pytest.raises(TypeError, match="callable"):
        star_quadrature(fv, h, THETA, [(0.0, 0.0)], lat, slot="second")
    with pytest.raises(TypeError, match="slot"):
        star_quadrature(h, h, THETA, [(0.0, 0.0)], lat)
    with pytest.raises(ValueError, match="slot"):
        star_quadrature(h, h, THETA, [(0.0, 0.0)], lat, slot="auto")


@pytest.mark.parametrize("slot", ["first", "second"])
def test_quadrature_of_stacks_holds_every_product(slot):
    # a stack of 2 x 3 left factors times a stack of 2 right factors gives
    # the 2 x 3 x 2 products of single calls, point by point
    lat = moyal_grid(7.0, 48)
    pts = [(0.2, 0.1), (-0.5, 0.8), (1.0, -0.3)]

    def left(x, y):
        return basis_stack(3, THETA, x, y)[:2]

    def right(x, y):
        return np.stack([np.exp(-(x * x + y * y) / 2.0),
                         y * np.exp(-(x * x + y * y) / 3.0)])

    got = star_quadrature(left, right, THETA, pts, lat, slot=slot)
    assert got.shape == (2, 3, 2, 3)
    for (i, j, k) in np.ndindex(2, 3, 2):
        one = star_quadrature(lambda x, y: left(x, y)[i, j],
                                 lambda x, y: right(x, y)[k],
                                 THETA, pts, lat, slot=slot)
        assert np.max(np.abs(got[i, j, k] - one)) <= 1e-15


@pytest.mark.parametrize("slot", ["first", "second"])
def test_quadrature_memory_is_three_stacks(slot):
    # the transformed stack, one point's shifted samples and their weighted
    # copy: each point's arrays are freed before the next point's are built
    lat = moyal_grid(7.0, 64)

    def basis(x, y):
        return basis_stack(8, THETA, x, y)

    pts = [(0.0, 0.0), (0.3, -0.4), (1.1, 0.7)]
    _, peak = _traced_peak(star_quadrature, basis, basis, THETA, pts, lat, slot)
    assert peak <= 3.25 * 8 * 8 * 64 * 64 * 16, peak


def test_twisted_needs_2d_periodic():
    with pytest.raises(ValueError, match="2-d periodic"):
        star_twisted(np.zeros((8, 8, 8)), np.zeros((8, 8, 8)),
                     moyal_grid(5.0, 8, dimension=3), THETA)


def test_twisted_warns_on_nyquist_content():
    lat = moyal_grid(3.0, 16)
    rng = np.random.default_rng(0)
    noisy = rng.standard_normal(lat.shape)
    smooth = np.exp(-(lat.coordinate_array(0) ** 2
                      + lat.coordinate_array(1) ** 2))
    with pytest.warns(RuntimeWarning, match="Nyquist"):
        star_twisted(noisy, smooth, lat, THETA)


def test_twisted_matches_defining_sum_on_rectangular_lattice():
    # unequal points and extents per axis expose any k1/k2 or m1/m2 mix-up
    # (a 1/m1 for 1/m2 slip included); the odd sizes exercise the mod-m1
    # regrouping of the frequency sum
    for extents, points in ((((-3.0, 4.0), (-5.0, 2.5)), (10, 14)),
                            (((-4.0, 2.0), (-2.5, 3.0)), (9, 7))):
        lat = Lattice(extents, points, boundary="periodic",
                      axis_names=("x", "y"))
        rng = np.random.default_rng(7)
        shape = lat.shape
        fv = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        hv = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        theta = 0.7
        with pytest.warns(RuntimeWarning, match="Nyquist"):
            got, _ = star_twisted(fv, hv, lat, theta)

        # (m1 m2)^-2 sum_{p,q} F(p) H(q) e^{i q.Theta p/2} e^{2 pi i (p+q).j/M}
        m = np.array(lat.points)
        idx = np.indices(lat.shape).reshape(2, -1).T
        freqs = [np.fft.fftfreq(m[a], lat.spacing(a)) for a in (0, 1)]
        k = 2.0 * np.pi * np.stack([freqs[a][idx[:, a]] for a in (0, 1)], 1)
        twist = np.exp(0.5j * theta * (np.outer(k[:, 0], k[:, 1])
                                        - np.outer(k[:, 1], k[:, 0])))
        wave = np.exp(2j * np.pi * idx @ (idx / m).T)
        want = np.einsum("p,q,qp,pj,qj->j", np.fft.fft2(fv).reshape(-1),
                         np.fft.fft2(hv).reshape(-1), twist, wave, wave,
                         optimize=True) / m.prod() ** 2
        assert np.max(np.abs(got.values.reshape(-1) - want)) <= 1e-12, points


def test_twisted_product_memory_is_three_cubes():
    # one 64^2 product holds no more than three M^3 complex arrays plus
    # 1 MiB of M^2 work arrays; an M x M DFT-matrix contraction with its
    # M^3 intermediates needs more
    lat = moyal_grid(7.0, 64)
    x, y = lat.coordinate_array(0), lat.coordinate_array(1)
    fv = (1.0 + x) * np.exp(-(x * x + y * y) / 3.0)
    hv = (y - 0.5 * x) * np.exp(-(x * x + y * y) / 2.0)
    _, peak = _traced_peak(star_twisted, fv, hv, lat, THETA)
    assert peak <= 3 * 64 ** 3 * 16 + 2 ** 20, peak


# ----------------------------------------------------------- matrix basis

def test_ground_state_profile():
    lat = moyal_grid(7.0, 64)
    x, y = lat.coordinate_array(0), lat.coordinate_array(1)
    f00 = basis_values(0, 0, THETA, x, y)
    want = 2.0 * np.exp(-(x * x + y * y) / THETA)
    assert np.max(np.abs(f00 - want)) <= 1e-13


def _laguerre_points():
    # xi = 2 r^2 / theta on the delta check's grid (box 7, 96^2 sites), plus
    # the origin and points far out in the Gaussian tail
    lat = moyal_grid()
    x, y = lat.coordinate_array(0), lat.coordinate_array(1)
    xi = 2.0 * (x * x + y * y) / THETA
    return np.concatenate([xi.reshape(-1), [0.0, 250.0, 1e3, 1e4]])


def test_genlaguerre_equals_scipy_bitwise():
    # every (m, k) the basis reaches at the largest accepted truncation, 32:
    # each order of one recurrence run
    xi = _laguerre_points()
    for k in range(33):
        orders = _genlaguerre(33 - k, k, xi)
        assert len(orders) == 33 - k
        for m, got in enumerate(orders):
            assert np.array_equal(got, eval_genlaguerre(m, k, xi)), (m, k)
    assert _genlaguerre(0, 3, xi) == []


def test_genlaguerre_high_orders_match_scipy():
    # from min(m, k) = 20 on scipy's binom leaves the multiplication formula
    xi = _laguerre_points()
    for m, k in [(33, 0), (0, 33), (7, 30), (20, 20), (24, 21), (22, 26)]:
        np.testing.assert_allclose(_genlaguerre(m + 1, k, xi)[m],
                                   eval_genlaguerre(m, k, xi),
                                   rtol=1e-12, atol=0, err_msg=str((m, k)))


def test_basis_stack_equals_basis_values_bitwise():
    # the delta check's grid, the origin, Gaussian-tail points, and a scalar
    # x broadcast against an array y
    lat = moyal_grid()
    n = 16
    grid = (lat.coordinate_array(0), lat.coordinate_array(1))
    tail = (np.array([0.0, 9.0, -14.0, 30.0]), np.array([0.0, -9.0, 2.0, 0.5]))
    line = (0.3, np.linspace(-1.0, 1.5, 5))
    for x, y in (grid, (0.0, 0.0), tail, line):
        stack = basis_stack(n, THETA, x, y)
        assert stack.shape == (n, n) + np.broadcast(x, y).shape
        for m, k in np.ndindex(n, n):
            assert np.array_equal(stack[m, k],
                                  basis_values(m, k, THETA, x, y)), (m, k)


@pytest.mark.parametrize("theta", [0.0, -0.5])
def test_basis_stack_needs_positive_theta(theta):
    with pytest.raises(ValueError, match="theta > 0"):
        basis_stack(3, theta, 0.0, 0.0)


def test_basis_stack_peak_memory_is_its_result():
    # the stack is filled in place: no per-entry arrays stacked into a copy
    lat = moyal_grid()
    stack, peak = _traced_peak(basis_stack, 16, THETA, lat.coordinate_array(0),
                               lat.coordinate_array(1))
    assert peak <= 1.1 * stack.nbytes, (peak, stack.nbytes)


def test_basis_conjugate_symmetry():
    lat = moyal_grid(7.0, 48)
    x, y = lat.coordinate_array(0), lat.coordinate_array(1)
    a = basis_values(2, 5, THETA, x, y)
    b = basis_values(5, 2, THETA, x, y)
    assert np.max(np.abs(a - np.conj(b))) <= 1e-12


def test_delta_algebra():
    rep = delta_algebra_check(truncation=8)
    assert rep.projection_residual <= 1e-10
    assert rep.product_residual <= 1e-10
    assert rep.identity_residual <= 1e-10
    assert rep.norm_ground_residual <= 1e-6
    assert rep.passed


def test_ground_projector_idempotent():
    lat = moyal_grid(7.0, 96)
    c = project(basis_field(0, 0, THETA, lat), lat, THETA, truncation=6)
    e00 = np.zeros((6, 6), dtype=complex)
    e00[0, 0] = 1.0
    assert np.max(np.abs(c - e00)) <= 1e-10
    sq = star_matrix_basis(c, c)
    assert np.max(np.abs(sq - c)) <= 1e-10
    assert abs(operator_norm(c) - 1.0) <= 1e-10


def test_project_synthesize_round_trip():
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    lat = moyal_grid(7.0, 96)
    fn = synthesize(coeffs, THETA)
    vals = fn(lat.coordinate_array(0), lat.coordinate_array(1))
    back = project(vals, lat, THETA, truncation=4)
    assert np.max(np.abs(back - coeffs)) <= 1e-8


def test_synthesize_rectangular_coefficients():
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    x = np.linspace(-2.0, 2.0, 7)
    y = np.linspace(1.5, -1.0, 7)
    want = sum(coeffs[m, n] * basis_values(m, n, THETA, x, y)
               for m in range(2) for n in range(5))
    assert np.max(np.abs(synthesize(coeffs, THETA)(x, y) - want)) <= 1e-14
    with pytest.raises(ValueError, match="2-d"):
        synthesize(np.ones(4), THETA)


# ----------------------------------------------------------------- checks

def test_cross_engine_agreement():
    rep = cross_engine_check(truncation=8)
    assert rep.quadrature_vs_basis <= 1e-4
    assert rep.twisted_vs_basis <= 1e-4
    assert rep.passed


def test_cross_engine_runs_the_quadrature_engine(monkeypatch):
    # the basis products go through star_quadrature itself, one call for
    # the whole evaluation point set
    calls = []
    engine = moyal.star_quadrature

    def spy(*args, **kwargs):
        got = engine(*args, **kwargs)
        calls.append(got.shape)
        return got
    monkeypatch.setattr(moyal, "star_quadrature", spy)
    rep = cross_engine_check(truncation=4)
    assert calls == [(4, 4, 4, 4, 3)]
    assert rep.quadrature_vs_basis <= 1e-4


def test_cross_engine_records_nyquist_warnings():
    # the suite's twisted grid is too coarse at theta 0.25: each of the five
    # products warns, and the report keeps what the warnings said
    with pytest.warns(RuntimeWarning, match="Nyquist") as caught:
        rep = cross_engine_check(theta=0.25, truncation=8)
    assert len(caught) == 5
    assert rep.twisted_tail_fraction > TAIL_WARN
    assert rep.twisted_tail_warnings == 5
    assert asdict(rep)["twisted_tail_warnings"] == 5
    rep = cross_engine_check(theta=0.5, truncation=8)
    assert 0.0 < rep.twisted_tail_fraction <= TAIL_WARN
    assert rep.twisted_tail_warnings == 0


def test_coordinate_commutator():
    rep = commutation_check()
    assert rep.residual <= 1e-6
    assert abs(rep.extrapolated_imag - THETA) <= 1e-6
    assert max(rep.closed_form_residuals) <= 1e-8
    # each damped value matches its own closed form
    for sig, raw in zip(rep.sigmas, rep.raw_imag):
        want = damped_commutator_closed_form(THETA, sig).imag
        assert abs(raw - want) <= 1e-8
    assert rep.passed


def test_center_time_verdicts():
    rep = center_time_check(points=24)
    assert rep.passed
    names = [c["theta_case"] for c in rep.cases]
    assert names == ["zero", "spatial_block", "time_space_block"]
    assert rep.cases[0]["commutative_time"]
    assert rep.cases[1]["commutative_time"]
    assert not rep.cases[2]["commutative_time"]
    assert rep.cases[0]["commutator_residual"] <= 1e-10
    assert rep.cases[1]["commutator_residual"] <= 1e-10
    assert rep.cases[2]["commutator_residual"] >= 1e-3


def test_trace_property():
    assert trace_check() <= 1e-5


def test_associativity():
    assert associativity_check() <= 1e-5


def test_involution():
    assert involution_check() <= 1e-8


def test_quick_suite_runs_the_library_defaults():
    # every check fixes its own grid, so a standalone call measures what
    # the CLI's quick suite reports
    _, payload = run_moyal_suite(theta=THETA, quick=True)
    assert payload["gaussian_oracle_residual"] == gaussian_oracle_check(THETA)
    assert payload["trace_residual"] == trace_check(THETA)
    assert payload["associativity_residual"] == associativity_check(THETA)
    assert payload["involution_residual"] == involution_check(THETA)
    assert payload["cross_engine"] == asdict(cross_engine_check(THETA))
    assert payload["commutation"] == asdict(commutation_check(THETA))
    assert payload["delta_algebra"] == asdict(
        delta_algebra_check(THETA, truncation=8))
    assert payload["center_time"] == asdict(center_time_check(THETA, points=24))
