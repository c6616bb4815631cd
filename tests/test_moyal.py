import inspect
import re
import warnings

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from lorentzlab.lattice import Lattice, slices
from lorentzlab import moyal
from lorentzlab.moyal import (CROSS_ENGINE_POINTS, DECAY_REFUSE, DELTA_TOL, TAIL_WARN, ThetaMatrix,
                              _genlaguerre,
                              basis_stack, basis_values,
                              center_time_check,
                              commutation_check, cross_engine_check,
                              damped_commutator_closed_form,
                              delta_algebra_check, gaussian_star_closed_form,
                              moyal_grid, operator_norm, project,
                              run_moyal_suite, star_quadrature, star_twisted,
                              synthesize, twisted_identities_check)

THETA = 0.5


def _boundary_fraction(values, lat):
    """For each field of a stack: max |f| on the outer shell of `lat` / max |f|."""
    v = np.abs(values).reshape((-1,) + lat.shape)
    top = v.max(axis=tuple(range(1, v.ndim)))
    edge = np.zeros_like(top)
    for a in range(1, v.ndim):
        for end in (0, -1):
            shell = np.take(v, end, axis=a)
            edge = np.maximum(edge, shell.max(axis=tuple(range(1, shell.ndim))))
    return edge / np.where(top > 0.0, top, 1.0)


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


# ----------------------------------------------------------- star engines

@pytest.fixture(scope="module")
def identity_residuals():
    # the twisted-engine identities share one grid, so one call serves
    # each of their tests
    return dict(zip(("gaussian", "trace", "associativity", "involution"),
                    twisted_identities_check(THETA)))


def test_gaussian_closed_form_twisted(identity_residuals):
    assert identity_residuals["gaussian"] <= 1e-8


# which factor of f * h the quadrature samples and transforms
ORIENTATIONS = ["first", "second"]


def _star(f, h, theta, points, lat, transformed, engine=star_quadrature):
    """f * h with its `transformed` factor ("first" or "second") sampled.

    "second" is the engine's call (f, h, Theta) as it stands; "first" is the
    same product as h *_{-Theta} f, with the stack axes put back in f, h
    order: S_f + S_h + (len(points),), after the Theta axis of a tuple.
    """
    if transformed == "second":
        return engine(f, h, theta, points, lat)
    lead = isinstance(theta, tuple)
    minus = tuple(ThetaMatrix(-moyal._theta_entries(t, lat.dimension))
                  for t in (theta if lead else (theta,)))
    got = engine(h, f, minus if lead else minus[0], points, lat)
    n_h = np.ndim(h(**dict.fromkeys(lat.axis_names, np.zeros(1)))) - 1
    n_f = got.ndim - 1 - n_h - lead
    return np.moveaxis(got, range(lead, lead + n_h),
                       range(lead + n_f, lead + n_f + n_h))


def test_gaussian_closed_form_quadrature():
    lat = moyal_grid(7.0, 96)
    a, b = 0.5, 0.8
    f = lambda x, y: np.exp(-a * (x * x + y * y))
    h = lambda x, y: np.exp(-b * (x * x + y * y))
    pts = [(0.0, 0.0), (0.7, -0.2), (1.3, 0.9)]
    r2 = np.array([x * x + y * y for x, y in pts])
    want = gaussian_star_closed_form(a, b, THETA, r2)
    for transformed in ORIENTATIONS:
        got = _star(f, h, THETA, pts, lat, transformed)
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
    assert np.max(np.abs(got - fv * hv)) <= 1e-13


@pytest.mark.parametrize("theta", [0.0, ThetaMatrix(np.zeros((2, 2)))],
                         ids=["scalar", "matrix"])
def test_quadrature_at_zero_theta_is_pointwise_product(theta):
    # either factor transformed: E(f, h, 0) and E(h, f, 0) are both f h
    lat = moyal_grid(7.0, 64)
    f = lambda x, y: (1.0 + x) * np.exp(-0.5 * (x * x + y * y))
    h = lambda x, y: (y - 0.5 * x) * np.exp(-0.8 * (x * x + y * y))
    pts = np.array([(0.0, 0.0), (0.21875, -0.4375), (0.3, -0.4), (1.1, 0.7)])
    want = f(*pts.T) * h(*pts.T)
    for a, b in ((f, h), (h, f)):
        got = star_quadrature(a, b, theta, pts, lat)
        assert np.max(np.abs(got - want)) <= 1e-11


def test_quadrature_mirror_consistency():
    lat = moyal_grid(7.0, 96)
    f = lambda x, y: x * np.exp(-(x * x + y * y) / 2.0)
    h = lambda x, y: (1.0 - y) * np.exp(-(x * x + y * y) / 3.0)
    pts = [(0.2, 0.1), (-0.5, 0.8)]
    first, second = (_star(f, h, THETA, pts, lat, transformed)
                     for transformed in ORIENTATIONS)
    assert np.max(np.abs(first - second)) <= 1e-8


def test_quadrature_refuses_undamped_factor():
    lat = moyal_grid(7.0, 48)
    f = lambda x, y: np.cos(x) + 0 * y
    h = lambda x, y: np.sin(y) + 0 * x
    for transformed in ORIENTATIONS:
        with pytest.raises(ValueError, match="decay"):
            _star(f, h, THETA, [(0.0, 0.0)], lat, transformed)


def test_quadrature_needs_callable_shift():
    lat = moyal_grid(7.0, 48)
    x, y = lat.coordinate_array(0), lat.coordinate_array(1)
    fv = np.exp(-(x * x + y * y))         # samples only: cannot be shifted
    h = lambda x, y: np.exp(-(x * x + y * y) / 2.0)
    with pytest.raises(TypeError, match="callable"):
        star_quadrature(fv, h, THETA, [(0.0, 0.0)], lat)
    with pytest.raises(TypeError, match="callable"):
        _star(h, fv, THETA, [(0.0, 0.0)], lat, "first")


@pytest.mark.parametrize("transformed", ORIENTATIONS)
def test_quadrature_of_stacks_holds_every_product(transformed):
    # a stack of 2 x 3 left factors times a stack of 2 right factors gives
    # the 2 x 3 x 2 products of single calls, point by point
    lat = moyal_grid(7.0, 48)
    pts = [(0.2, 0.1), (-0.5, 0.8), (1.0, -0.3)]

    def left(x, y):
        return basis_stack(3, THETA, x, y)[:2]

    def right(x, y):
        return np.stack([np.exp(-(x * x + y * y) / 2.0),
                         y * np.exp(-(x * x + y * y) / 3.0)])

    got = _star(left, right, THETA, pts, lat, transformed)
    assert got.shape == (2, 3, 2, 3)
    for (i, j, k) in np.ndindex(2, 3, 2):
        one = _star(lambda x, y: left(x, y)[i, j],
                    lambda x, y: right(x, y)[k],
                    THETA, pts, lat, transformed)
        assert np.max(np.abs(got[i, j, k] - one)) <= 1e-15


@pytest.mark.parametrize("transformed", ORIENTATIONS)
def test_quadrature_memory_is_one_stack_and_a_block(transformed, traced_peak):
    # the owned spectrum buffer, one block of shifted samples and the
    # engine's phased copy of it (an eighth of a stack each here): no
    # sampled copy of the transformed stack beside its spectrum, and no
    # point's whole shifted stack
    lat = moyal_grid(7.0, 64)

    def basis(x, y):
        return basis_stack(8, THETA, x, y)

    pts = [(0.0, 0.0), (0.3, -0.4), (1.1, 0.7)]
    _, peak = traced_peak(_star, basis, basis, THETA, pts, lat, transformed)
    assert peak <= 1.5 * 8 * 8 * 64 * 64 * 16, peak


def _quadrature_unstreamed(f, h, theta, points, lat):
    """star_quadrature's values from whole samples: the reference.

    The transformed stack sampled on the whole grid, its FFT copy, and each
    point's shifted stack on every frequency at once; the frequency sums
    run over the engine's blocks, so the two must agree bit for bit.
    """
    d = lat.dimension
    th = moyal._theta_entries(theta, d)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.asarray(h(**lat.environment()))
    stack = vals.shape[:vals.ndim - d]
    F, ks = moyal.phys_fft(np.array(vals, dtype=complex), lat)
    K = np.stack(np.meshgrid(*ks, indexing="ij"), axis=-1).reshape(-1, d)
    W = F.reshape(-1, len(K))
    wq = float(np.prod([k[1] - k[0] for k in ks])) / (2.0 * np.pi) ** d
    shifts = -0.5 * (K @ th.T)
    out = []
    for x in pts:
        sv = np.asarray(f(**dict(zip(lat.axis_names, (x + shifts).T))))
        head = sv.shape[:-1]
        rows = sv.reshape(-1, len(K))
        phase = wq * np.exp(1j * (K @ x))
        got = np.zeros((len(rows), len(W)), dtype=complex)
        for b in slices(len(K), moyal.BLOCK_BYTES // (32 * len(rows))):
            got += (rows[:, b] * phase[b]) @ W[:, b].T
        out.append(got)
    return np.stack(out, axis=-1).reshape(head + stack + (len(pts),))


def _basis8(x, y):
    return basis_stack(8, THETA, x, y)


def _pair_stack(x, y):
    return np.stack([np.exp(-(x * x + y * y) / 2.0),
                     y * np.exp(-(x * x + y * y) / 3.0)])


# a Theta stack: scalars, a matrix, zero and a negative zero
THETA_STACK = (THETA, ThetaMatrix.plane_block(-0.3), 0.0,
               ThetaMatrix(-np.zeros((2, 2))))
# (sampled, shifted, grid, block bytes or None for BLOCK_BYTES, theta)
STREAMED_CASES = {
    "basis-stacks": (_basis8, _basis8, (7.0, 64), None, THETA),
    "scalar-shift": (_basis8, moyal._damped(0, 4.0), (20.0, 64), None, THETA),
    # 48^2 = 2304 sites: site blocks of 700 for the six transformed
    # functions, frequency blocks of 1050 for the two shifted ones
    "partial-blocks": (lambda x, y: basis_stack(3, THETA, x, y)[:2],
                       _pair_stack, (7.0, 48), 96 * 700, THETA),
    "theta-stack": (lambda x, y: basis_stack(3, THETA, x, y)[:2],
                    _pair_stack, (7.0, 48), 96 * 700, THETA_STACK),
}


@pytest.mark.parametrize("transformed", ORIENTATIONS)
@pytest.mark.parametrize("case", list(STREAMED_CASES))
def test_streamed_quadrature_equals_unstreamed_bitwise(case, transformed,
                                                       monkeypatch):
    # a Theta stack gives, slice by slice, each Theta's own values; one
    # Theta gives them without the leading axis
    sampled, shifted, grid, block, theta = STREAMED_CASES[case]
    if block is not None:
        monkeypatch.setattr(moyal, "BLOCK_BYTES", block)
    f, h = ((sampled, shifted) if transformed == "first"
            else (shifted, sampled))
    lat = moyal_grid(*grid)
    pts = CROSS_ENGINE_POINTS
    got = _star(f, h, theta, pts, lat, transformed)
    stacked = isinstance(theta, tuple)
    want = [_star(f, h, t, pts, lat, transformed,
                  engine=_quadrature_unstreamed)
            for t in (theta if stacked else (theta,))]
    assert np.array_equal(got, np.stack(want) if stacked else want[0])


def test_theta_stack_of_wrong_dimension_is_refused_before_sampling():
    calls = []

    def gauss(x, y):
        calls.append(1)
        return np.exp(-(x * x + y * y))

    lat = moyal_grid(7.0, 16)
    stack = (THETA, ThetaMatrix.plane_block(THETA, 3))
    with pytest.raises(ValueError, match="dimension 3 does not match"):
        star_quadrature(gauss, gauss, stack, [(0.0, 0.0)], lat)
    assert calls == []


@pytest.mark.parametrize("transformed", ORIENTATIONS)
def test_quadrature_leaves_returned_arrays_alone(transformed):
    # a callable may keep the arrays it returns: the engine writes only
    # into arrays of its own
    kept = []

    def keeping(x, y):
        values = basis_stack(2, THETA, x, y)
        kept.append((np.copy(x), np.copy(y), values))
        return values

    _star(keeping, keeping, THETA, CROSS_ENGINE_POINTS, moyal_grid(7.0, 32),
          transformed)
    assert len(kept) > 2
    for x, y, values in kept:
        assert np.array_equal(values, basis_stack(2, THETA, x, y))


@pytest.mark.parametrize("transformed", ORIENTATIONS)
def test_quadrature_reads_read_only_samples(transformed):
    # a callable may return a fresh array it has made read-only: the engine
    # then multiplies by the phase into an array of its own
    def gauss(x, y):
        return np.exp(-(x * x + y * y)).astype(complex)

    def read_only(x, y):
        values = gauss(x, y)
        values.setflags(write=False)
        return values

    lat = moyal_grid(7.0, 48)
    pts = CROSS_ENGINE_POINTS
    assert np.array_equal(_star(read_only, read_only, THETA, pts, lat,
                                transformed),
                          _star(gauss, gauss, THETA, pts, lat, transformed))


def _last_site_bump(lat):
    """(x, y) -> a Gaussian plus 0.5 at the last site of `lat` only."""
    x_last, y_last = (lat.coordinate_array(a).reshape(-1)[-1] for a in (0, 1))

    def field(x, y):
        return (np.exp(-(x * x + y * y))
                + 0.5 * ((x == x_last) & (y == y_last)))
    return field


@pytest.mark.parametrize("transformed", ORIENTATIONS)
@pytest.mark.parametrize("case", ["last-function", "last-site-block"])
def test_streamed_decay_refusal_sees_every_block(case, transformed,
                                                 monkeypatch):
    # 48^2 sites in blocks of 700: the refusal must see the last function
    # of the stack and the last, partial block of sites
    lat = moyal_grid(7.0, 48)
    if case == "last-function":
        def factor(x, y):
            r2 = x * x + y * y
            return np.stack([np.exp(-r2), np.exp(-r2 / 2.0), np.cos(x) + 0 * y])
        monkeypatch.setattr(moyal, "BLOCK_BYTES", 48 * 700)
    else:
        factor = _last_site_bump(lat)
        monkeypatch.setattr(moyal, "BLOCK_BYTES", 16 * 700)
    want = _boundary_fraction(factor(**lat.environment()), lat)
    assert want.max() > DECAY_REFUSE and np.argmax(want) == len(want) - 1
    gauss = lambda x, y: np.exp(-(x * x + y * y) / 2.0)
    f, h = (factor, gauss) if transformed == "first" else (gauss, factor)
    with pytest.raises(ValueError, match=re.escape(
            "inside the box [-7, 7) x [-7, 7) (boundary fraction %.3e)"
            % want.max()) + "$"):
        _star(f, h, THETA, [(0.0, 0.0)], lat, transformed)


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
        assert np.max(np.abs(got.reshape(-1) - want)) <= 1e-12, points


def test_twisted_product_memory_is_below_one_cube(traced_peak):
    # one 64^2 product holds its two BLOCK_BYTES blocks of regrouped rows
    # and a few M^2 arrays, less than one M^3 complex array; the unblocked
    # engine held two or three M^3 arrays
    lat = moyal_grid(7.0, 64)
    x, y = lat.coordinate_array(0), lat.coordinate_array(1)
    fv = (1.0 + x) * np.exp(-(x * x + y * y) / 3.0)
    hv = (y - 0.5 * x) * np.exp(-(x * x + y * y) / 2.0)
    _, peak = traced_peak(star_twisted, fv, hv, lat, THETA)
    assert peak <= 64 ** 3 * 16, peak


def _twisted_unblocked(f, h, lat, theta):
    """star_twisted's values as one (m1, m1, m2) regrouping: the reference."""
    half_theta = 0.5 * theta
    m1, m2 = lat.points
    fr = np.fft.fft2(np.asarray(f, dtype=complex))
    hr = np.fft.fft2(np.asarray(h, dtype=complex))
    k1 = 2.0 * np.pi * np.fft.fftfreq(m1, lat.spacing(0))
    k2 = 2.0 * np.pi * np.fft.fftfreq(m2, lat.spacing(1))
    q = (np.arange(m1)[None, :] - np.arange(m1)[:, None]) % m1
    twist = np.exp(1j * half_theta * np.outer(k1, k2))
    fa = twist[q]
    fa *= fr[:, None, :]
    np.fft.ifft(fa, axis=-1, out=fa)
    hb = hr[q]
    hb *= np.conj(twist)[:, None, :]
    np.fft.ifft(hb, axis=-1, out=hb)
    return np.fft.ifft(np.einsum("psj,psj->sj", fa, hb), axis=0) / m1


@pytest.mark.parametrize("points,rows", [((64, 64), 5), ((64, 64), 1),
                                         ((64, 64), 64), ((9, 7), 4)])
def test_blocked_twisted_equals_unblocked_bitwise(points, rows, monkeypatch):
    # blocks of `rows` regrouped rows; 64 = 12 * 5 + 4 and 9 = 2 * 4 + 1
    # end in a partial block, 64 rows is the whole grid in one block
    monkeypatch.setattr(moyal, "BLOCK_BYTES", rows * 16 * points[0] * points[1])
    lat = Lattice(((-7.0, 7.0), (-6.0, 6.5)), points, boundary="periodic",
                  axis_names=("x", "y"))
    x, y = lat.coordinate_array(0), lat.coordinate_array(1)
    fv = (1.0 + x + 0.5j * y) * np.exp(-(x * x + y * y) / 3.0)
    hv = (y - 0.5 * x) * np.exp(-(x * x + y * y) / 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # 9 x 7 is coarse
        got, _ = star_twisted(fv, hv, lat, THETA)
    assert np.array_equal(got, _twisted_unblocked(fv, hv, lat, THETA))


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
    lat = moyal_grid(*moyal.DELTA_GRID)
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
    lat = moyal_grid(*moyal.DELTA_GRID)
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


def test_basis_stack_peak_memory_is_its_result(traced_peak):
    # the stack is filled in place: no per-entry arrays stacked into a copy
    lat = moyal_grid(*moyal.DELTA_GRID)
    stack, peak = traced_peak(basis_stack, 16, THETA, lat.coordinate_array(0),
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
    assert list(rep) == ["truncation", "projection_residual",
                         "norm_ground_residual"]
    assert rep["projection_residual"] <= 5e-11
    assert rep["norm_ground_residual"] <= 1e-6


@pytest.mark.parametrize("theta, truncation, passed, residual", [
    (0.5, 8, True, 6.661e-16), (0.5, 16, True, 9.104e-15),
    (1.0, 16, False, 1.195e-10), (0.25, 16, False, 0.1065)])
def test_delta_record_is_the_gram_residual(theta, truncation, passed,
                                           residual):
    # the old record, max(p, ~2p + n p^2, 0) <= 1e-10, gave these verdicts;
    # the Gram residual p under the halved bound keeps each one
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # theta 0.25 aliases
        checks, payload = run_moyal_suite(theta=theta, truncation=truncation)
    record, = [c for c in checks if c.name == "matrix basis delta algebra"]
    assert record.value == payload["delta_algebra"]["projection_residual"]
    # the cross-engine check runs at most CROSS_ENGINE_TRUNCATION orders
    assert payload["cross_engine"]["truncation"] == min(
        truncation, moyal.CROSS_ENGINE_TRUNCATION)
    assert (record.relation, record.bound) == ("<=", DELTA_TOL)
    assert record.passed is passed
    assert record.value == pytest.approx(residual, rel=1e-3)


def test_delta_check_memory_is_its_gram_matrices(traced_peak):
    # the basis streams over blocks of the 96^2 grid: the check holds the
    # 256 x 256 Gram matrix, its copies and one block, 5 MB at truncation
    # 16, where the 256 sampled basis functions alone take 38 MB
    rep, peak = traced_peak(delta_algebra_check, THETA, 16)
    assert rep["projection_residual"] <= 1e-10
    assert peak <= 8 * 10 ** 6, peak


def test_delta_check_memory_is_three_gram_matrices(traced_peak):
    # no product loop beside the Gram matrix: at truncation 24 the check
    # holds at most three 576 x 576 complex matrices, 15.9 MB
    rep, peak = traced_peak(delta_algebra_check, THETA, 24)
    assert rep["truncation"] == 24
    assert peak <= 3 * 16 * 24 ** 4, peak


def _dense_basis(n, lat):
    return basis_stack(n, THETA, lat.coordinate_array(0),
                       lat.coordinate_array(1)).reshape(n * n, -1)


@pytest.mark.parametrize("n", [8, 16])
def test_streamed_gram_matches_dense(n):
    lat = moyal_grid(*moyal.DELTA_GRID)
    basis = _dense_basis(n, lat)
    weighted = np.conj(basis) * lat.site_weights().reshape(-1)
    want = weighted @ basis.T / (2.0 * np.pi * THETA)
    assert np.max(np.abs(moyal._gram(n, THETA, lat) - want)) <= 1e-15


@pytest.mark.parametrize("n", [8, 16])
def test_streamed_projection_matches_dense(n):
    # relative to the largest coefficient: the block sums round differently
    lat = moyal_grid(*moyal.DELTA_GRID)
    rng = np.random.default_rng(4)
    coeffs = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    values = synthesize(coeffs, THETA)(lat.coordinate_array(0),
                                       lat.coordinate_array(1))
    fw = (values * lat.site_weights()).reshape(-1)
    want = np.conj(_dense_basis(n, lat)) @ fw / (2.0 * np.pi * THETA)
    got = project(values, lat, THETA, truncation=n).reshape(-1)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_ground_projector_idempotent():
    lat = moyal_grid(7.0, 96)
    f00 = basis_values(0, 0, THETA, lat.coordinate_array(0),
                       lat.coordinate_array(1))
    c = project(f00, lat, THETA, truncation=6)
    e00 = np.zeros((6, 6), dtype=complex)
    e00[0, 0] = 1.0
    assert np.max(np.abs(c - e00)) <= 1e-10
    assert np.max(np.abs(c @ c - c)) <= 1e-10
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
    assert rep["quadrature_vs_basis"] <= 1e-4
    assert rep["twisted_vs_basis"] <= 1e-4


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
    assert rep["quadrature_vs_basis"] <= 1e-4


def test_cross_engine_keeps_a_nan_twisted_residual(monkeypatch):
    # NaN from the second of the twisted products: a running max() kept
    # the others
    calls = []
    engine = moyal.star_twisted

    def twisted(*args):
        got, tail = engine(*args)
        calls.append(1)
        return (got * np.nan if len(calls) == 2 else got), tail
    monkeypatch.setattr(moyal, "star_twisted", twisted)
    rep = cross_engine_check(truncation=4)
    assert np.isnan(rep["twisted_vs_basis"])


def test_cross_engine_records_nyquist_warnings():
    # the suite's twisted grid is too coarse at theta 0.25: each of the five
    # products warns, and the report keeps what the warnings said
    with pytest.warns(RuntimeWarning, match="Nyquist") as caught:
        rep = cross_engine_check(theta=0.25, truncation=8)
    assert len(caught) == 5
    assert rep["twisted_tail_fraction"] > TAIL_WARN
    assert rep["twisted_tail_warnings"] == 5
    rep = cross_engine_check(theta=0.5, truncation=8)
    assert 0.0 < rep["twisted_tail_fraction"] <= TAIL_WARN
    assert rep["twisted_tail_warnings"] == 0


def test_coordinate_commutator():
    rep = commutation_check()
    assert rep["residual"] <= 1e-6
    assert abs(rep["extrapolated_imag"] - THETA) <= 1e-6
    assert max(rep["closed_form_residuals"]) <= 1e-8
    # each damped value matches its own closed form
    for sig, raw in zip(rep["sigmas"], rep["raw_imag"]):
        want = damped_commutator_closed_form(THETA, sig).imag
        assert abs(raw - want) <= 1e-8


def test_center_time_verdicts():
    cases = center_time_check(points=24)
    names = [c["theta_case"] for c in cases]
    assert names == ["zero", "spatial_block", "time_space_block"]
    assert cases[0]["commutative_time"]
    assert cases[1]["commutative_time"]
    assert not cases[2]["commutative_time"]
    assert cases[0]["commutator_residual"] <= 1e-10
    assert cases[1]["commutator_residual"] <= 1e-10
    assert cases[2]["commutator_residual"] >= 1e-3


def _spy(monkeypatch, name, shape_of):
    """Replace moyal.<name> by a wrapper; returns the list of result shapes."""
    shapes = []
    engine = getattr(moyal, name)

    def spy(*args, **kwargs):
        got = engine(*args, **kwargs)
        shapes.append(np.shape(shape_of(got)))
        return got
    monkeypatch.setattr(moyal, name, spy)
    return shapes


def test_center_time_check_is_one_quadrature_call(monkeypatch):
    # the six products of the three cases, (f h, h f) for each Theta, come
    # from one call on the Theta stack (0, -0, S, -S, M, -M)
    shapes = _spy(monkeypatch, "star_quadrature", lambda got: got)
    center_time_check(points=24)
    assert shapes == [(6, 3)]


def test_quick_suite_engine_calls(monkeypatch):
    # cross-engine 1 + commutation 2 x 2 + center 1 quadrature calls; the
    # cross-engine 5 + identities 8 twisted products
    quadrature = _spy(monkeypatch, "star_quadrature", lambda got: got)
    twisted = _spy(monkeypatch, "star_twisted", lambda got: got[0])
    run_moyal_suite(quick=True)
    assert len(quadrature) == 6
    assert twisted == [(64, 64)] * 13


def test_quick_suite_builds_its_twist_tables_once():
    # all 13 twisted products share one grid and one theta
    moyal._twist_tables.cache_clear()
    run_moyal_suite(quick=True)
    info = moyal._twist_tables.cache_info()
    assert (info.misses, info.hits) == (1, 12)


def test_twist_tables_are_read_only():
    lat = moyal_grid(7.0, 64)
    for table in moyal._twist_tables(64, 64, lat.spacing(0), lat.spacing(1),
                                     THETA):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 0


@pytest.mark.parametrize("points", [(64, 64), (9, 7)])
def test_twist_tables_follow_grid_and_theta(points):
    # a product after one at another theta, and after one on another grid,
    # is still the unblocked reference's bit for bit
    lat = Lattice(((-7.0, 7.0), (-6.0, 6.5)), points, boundary="periodic",
                  axis_names=("x", "y"))
    x, y = lat.coordinate_array(0), lat.coordinate_array(1)
    fv = (1.0 + x + 0.5j * y) * np.exp(-(x * x + y * y) / 3.0)
    hv = (y - 0.5 * x) * np.exp(-(x * x + y * y) / 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # coarse grids
        for theta in (0.5, 0.25, 0.5):
            got, _ = star_twisted(fv, hv, lat, theta)
            assert np.array_equal(got, _twisted_unblocked(fv, hv, lat, theta))


def test_center_time_check_holds_one_theta_at_a_time(traced_peak):
    # on the check's 24^3 lattice, the six-Theta call peaks no higher than
    # one single-Theta call of the same factors but for a named slack: the
    # six results and the stack's entries.  A second Theta's shifts held
    # at once (24^3 x 3 floats, 324 KiB) would exceed it
    slack = 64 * 1024
    lat = moyal_grid(moyal.CENTER_BOX, 24, dimension=3)
    s2 = moyal.CENTER_SIGMA ** 2

    def f_time(t, x, y):
        return t * np.exp(-t * t / s2)

    def h_gauss(t, x, y):
        return (1.0 + 0.3 * x + 0.2 * y) * np.exp(-(t * t + x * x + y * y) / s2)

    pts = [(0.0, 0.0, 0.0), (0.5, -0.3, 0.2), (1.0, 0.8, -0.6)]
    mixed = ThetaMatrix.plane_block(THETA, 3, axes=(0, 1))
    _, one = traced_peak(star_quadrature, f_time, h_gauss, mixed, pts, lat)
    _, peak = traced_peak(lambda: center_time_check(THETA, points=24))
    assert peak <= one + slack, (peak, one)


def test_trace_property(identity_residuals):
    assert identity_residuals["trace"] <= 1e-5


def test_associativity(identity_residuals):
    assert identity_residuals["associativity"] <= 1e-5


def test_involution(identity_residuals):
    assert identity_residuals["involution"] <= 1e-8


def test_quick_suite_runs_the_library_defaults():
    # every check fixes its own grid, so a standalone call measures what
    # the CLI's quick suite reports
    _, payload = run_moyal_suite(theta=THETA, quick=True)
    assert (payload["gaussian_oracle_residual"], payload["trace_residual"],
            payload["associativity_residual"],
            payload["involution_residual"]) == twisted_identities_check(THETA)
    assert payload["cross_engine"] == cross_engine_check(THETA)
    assert payload["cross_engine"]["truncation"] == moyal.CROSS_ENGINE_TRUNCATION
    default = inspect.signature(cross_engine_check).parameters["truncation"]
    assert default.default == moyal.CROSS_ENGINE_TRUNCATION
    assert payload["commutation"] == commutation_check(THETA)
    assert payload["delta_algebra"] == delta_algebra_check(THETA, truncation=8)
    assert payload["center_time"] == {"cases": center_time_check(THETA, points=24)}


def test_quick_refuses_a_truncation_it_would_drop(monkeypatch):
    # quick runs QUICK_TRUNCATION: the suite refuses any other truncation
    # before any work rather than silently running that one
    calls = []
    monkeypatch.setattr(moyal, "cross_engine_check",
                        lambda *args, **kwargs: calls.append(kwargs))
    with pytest.raises(ValueError) as refused:
        run_moyal_suite(truncation=24, quick=True)
    assert str(refused.value) == ("truncation 24 cannot run with quick, which "
                                  "runs truncation 8")
    assert calls == []
    assert moyal.suite_truncation(8, quick=True) == 8
    assert moyal.suite_truncation(None, quick=True) == 8
    assert moyal.suite_truncation(24) == 24
    assert moyal.suite_truncation() == moyal.TRUNCATION_DEFAULT
