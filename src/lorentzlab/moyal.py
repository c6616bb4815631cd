"""Star products on R^d with constant noncommutativity matrix Theta.

Three independent engines for f * h:

* quadrature     (f*h)(x) = (2pi)^-d int ĥ(q) e^{iqx} f(x - Theta q/2) dq;
                 pointwise, any dimension; both factors are callables and
                 the transformed one, h, must decay.  h *_Theta f is
                 f *_{-Theta} h, so one path serves either order with h
                 transformed.  Either may return a stack of functions, and
                 one call then gives every product.
* twisted        full-grid product of two sampled arrays on a 2-d periodic
                 lattice; the twist phase (theta/2)(q1 p2 - q2 p1) splits
                 into two one-variable phase matrices, and the double
                 frequency sum, regrouped by (p1 + q1) mod m1, becomes
                 length-m2 inverse FFTs, a sum over p1 and one inverse FFT
                 over the regrouped index, O(M^3 log M); exact pointwise
                 product when Theta = 0.
* matrix basis   expansion in the Landau-type basis
                 f_mn = 2(-1)^m sqrt(m!/n!) e^{i(n-m)phi} xi^{(n-m)/2}
                        L_m^{(n-m)}(xi) e^{-xi/2},   xi = 2 r^2 / theta,
                 where the star product is the matrix product of coefficient
                 matrices and f_mn * f_kl = delta_nk f_ml exactly.

Conventions: [x, y]_* = i theta with Theta = [[0, theta], [-theta, 0]].
Closed forms used as oracles:

    exp(-a r^2) * exp(-b r^2) = 1/(1+ab theta^2) exp(-(a+b) r^2/(1+ab theta^2))
    [x g, y g]_*(0) = i theta (1 + theta^2/sigma^4)^-2,   g = exp(-r^2/sigma^2)

Membership of unbounded symbols in the unitized multiplier algebra is
declared ("assumed"), not verified; only the numerical identities are checked.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, fft2, fftfreq, ifft

from .checks import MIN_SCALE, Check, verdict
from .expressions import AXIS_NAMES
from .lattice import Lattice, slices

THETA_DEFAULT = 0.5
TRUNCATION_DEFAULT = 16
QUICK_TRUNCATION = 8     # the truncation of moyal --quick and report
DELTA_TOL = 5e-11
CROSS_ENGINE_TOL = 1e-4
COMMUTATION_TOL = 1e-6
TRACE_TOL = 1e-5
ASSOCIATIVITY_TOL = 1e-5
GAUSSIAN_TOL = 1e-8
INVOLUTION_TOL = 1e-8
NORM_TOL = 1e-6
CENTER_TOL = 1e-10
CENTER_CONTRAST = 1e-3
DECAY_REFUSE = 0.05
TAIL_WARN = 1e-6
NYQUIST_SHELL = 0.85     # |k| above this share of the largest |k| is tail
BLOCK_BYTES = 2 ** 20    # one block of a streamed grid-sized intermediate

# Each check's grid, fixed here and nowhere else: (box, points) is the
# periodic moyal_grid on [-box, box)^2 with `points` sites per axis.
DELTA_GRID = (7.0, 96)   # projection integrands: twice one function's spectrum
CROSS_ENGINE_GRID = (7.0, 64)   # basis functions: they scale with theta and n
CROSS_ENGINE_TRUNCATION = 8     # orders of the cross-engine check, at most
IDENTITY_GRID = (7.0, 64)       # fixed-width Gaussians, whatever theta and n
COMMUTATION_POINTS = 64  # on [-5 sigma, 5 sigma)^2 for each sigma
COMMUTATION_BOX_FACTOR = 5.0
COMMUTATION_SIGMAS = (4.0, 4.0 * math.sqrt(2.0))
CENTER_BOX = 6.0         # 3-d
CENTER_POINTS = 32       # per axis, center_time_check's `points`
QUICK_CENTER_POINTS = 24     # the points of moyal --quick and report
CENTER_SIGMA = 2.0
GAUSSIAN_WIDTHS = (0.5, 0.8)     # exp(-a r^2) * exp(-b r^2)
CROSS_ENGINE_POINTS = ((0.0, 0.0), (0.3, -0.4), (1.1, 0.7))
# the (f_mn, f_kl) pairs the twisted engine multiplies on the full grid
TWISTED_PAIRS = (((0, 0), (0, 0)), ((0, 1), (1, 0)), ((0, 1), (1, 2)),
                 ((2, 1), (1, 3)), ((0, 1), (2, 2)))


# ---------------------------------------------------------------- Theta


@dataclass(frozen=True)
class ThetaMatrix:
    """Constant antisymmetric noncommutativity matrix; skewness is exact."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("Theta must be a square matrix, got shape %s"
                             % (e.shape,))
        bad = np.argwhere(e != -e.T)
        if len(bad):
            items = ", ".join("Theta[%d,%d]=%r vs Theta[%d,%d]=%r"
                              % (i, j, e[i, j], j, i, e[j, i])
                              for i, j in bad[:4])
            raise ValueError("Theta is not exactly antisymmetric: " + items)
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @classmethod
    def plane_block(cls, theta, dimension=2, axes=(0, 1)):
        e = np.zeros((dimension, dimension))
        i, j = axes
        e[i, j] = theta
        e[j, i] = -theta
        return cls(e)

    def commutative_time(self):
        """Time central iff the first row and column vanish identically."""
        return bool(np.all(self.entries[0] == 0.0)
                    and np.all(self.entries[:, 0] == 0.0))


def _theta_entries(theta, dimension):
    """Entries of a ThetaMatrix, or of the plane block of a scalar theta."""
    if isinstance(theta, ThetaMatrix):
        e = theta.entries
    else:
        e = ThetaMatrix.plane_block(float(theta), dimension).entries
    if e.shape[0] != dimension:
        raise ValueError("Theta dimension %d does not match grid dimension %d"
                         % (e.shape[0], dimension))
    return e


# ----------------------------------------------------------------- grids


def moyal_grid(box, points, dimension=2):
    """Periodic lattice on [-box, box)^d; axes (x,y) in 2-d, (t,x,y) above."""
    names = AXIS_NAMES[1:3] if dimension == 2 else AXIS_NAMES[:dimension]
    return Lattice(tuple((-float(box), float(box)) for _ in range(dimension)),
                   tuple(int(points) for _ in range(dimension)),
                   boundary="periodic", axis_names=names)


def phys_fft(values, lat):
    """Continuum-normalized FFT: F(k) = sum f(x) e^{-ikx} dx; returns (F, axes).

    Transforms the trailing lat.dimension axes, so a stack of fields works.
    `values` must be a complex array: it is transformed in place, axis by
    axis in fftn's order, and returned as F, so no stack-sized copy is made.
    """
    F = values
    for a in range(-1, -lat.dimension - 1, -1):
        fft(F, axis=a, out=F)
    ks = []
    for a in range(lat.dimension):
        k = 2.0 * np.pi * fftfreq(lat.points[a], lat.spacing(a))
        ks.append(k)
        shape = [1] * lat.dimension
        shape[a] = -1
        F *= np.exp(-1j * k * lat.extents[a][0]).reshape(shape)
    F *= float(np.prod(lat.spacings))
    return F, ks


# -------------------------------------------------------- quadrature engine


def star_quadrature(f, h, theta, points, lat):
    """Pointwise f * h at the given points on any-dimensional grids.

    f and h are callables of the axis names of `lat`, evaluated pointwise on
    1-d arrays of points.  h is sampled and transformed and f is shifted by
    -Theta q/2; h *_Theta f is star_quadrature(f, h, -Theta, ...), since
    h *_Theta f = f *_{-Theta} h.  h must decay inside the box: a boundary
    fraction (largest |value| on the outer shell over the largest |value|)
    above DECAY_REFUSE for any function of its stack is a ValueError.
    Either factor may return a stack of functions, shape S + the shape of
    its arguments; the values then hold every product, shape
    S_f + S_h + (len(points),).  theta is one Theta or a tuple of them: a
    tuple of T gives the values of each Theta, shape (T,) + that shape,
    from one sampled and transformed h and one phase e^{ik.x} per point.
    Each Theta's shifts -Theta q/2 are formed into one buffer just before
    its own blocks, so one phase and one Theta's shifts are held at a
    time.  Returns the values array.
    The engine owns one complex spectrum buffer of the transformed stack,
    filled from blocks of sites and transformed in place (phys_fft).  Each
    point evaluates the shifted factor one block of frequencies at a time
    and multiplies it by its phase e^{ik.x} into a second buffer the engine
    allocates once per call; a block's samples and that buffer share
    BLOCK_BYTES, so beside the spectrum one block is held: about one stack
    in all.  No array a callable returned is ever written.
    """
    d = lat.dimension
    stacked = isinstance(theta, tuple)
    ths = [_theta_entries(t, d) for t in (theta if stacked else (theta,))]
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != d:
        raise ValueError("points must have %d coordinates" % d)

    def at(fn, coords):
        """fn at the points whose coordinates per axis are `coords`."""
        return np.asarray(fn(**dict(zip(lat.axis_names, coords))))

    # the transformed stack: sampled on blocks of sites into the spectrum
    # buffer, with each function's max |f| and its max on the outer shell
    axes = [c.reshape(-1) for c in lat.environment().values()]
    idx = np.indices(lat.shape).reshape(d, -1)
    shell = np.any((idx == 0) | (idx == np.array(lat.points)[:, None] - 1), 0)
    stack = at(h, [c[:1] for c in axes]).shape[:-1]
    F = np.empty(stack + lat.shape, dtype=complex)
    W = F.reshape(-1, lat.site_count)
    top = np.zeros(len(W))
    edge = np.zeros(len(W))
    for s in slices(lat.site_count, BLOCK_BYTES // (16 * len(W))):
        block = [c[s] for c in axes]
        W[:, s] = at(h, block).reshape(-1, len(block[0]))
        v = np.abs(W[:, s])
        np.maximum(top, v.max(axis=1), out=top)
        np.maximum(edge, v[:, shell[s]].max(axis=1, initial=0.0), out=edge)
        del v
    bd = float((edge / np.where(top > 0.0, top, 1.0)).max())
    if bd > DECAY_REFUSE:
        box = " x ".join("[%g, %g)" % e for e in lat.extents)
        raise ValueError("transformed factor does not decay inside the box "
                         "%s (boundary fraction %.3e)" % (box, bd))
    F, ks = phys_fft(F, lat)

    K = np.stack(np.meshgrid(*ks, indexing="ij"), axis=-1).reshape(-1, d)
    wq = float(np.prod([k[1] - k[0] for k in ks])) / (2.0 * np.pi) ** d
    shifts = np.empty_like(K)           # one Theta's -Theta q/2 at a time
    head = at(f, pts[:1].T).shape[:-1]
    count = int(np.prod(head))
    blocks = slices(len(K), BLOCK_BYTES // (32 * count))
    phased = np.empty(count * blocks[0].stop, dtype=complex)   # widest block
    out = [[] for _ in ths]
    for x in pts:
        phase = wq * np.exp(1j * (K @ x))
        for th, got_th in zip(ths, out):
            np.multiply(np.matmul(K, th.T, out=shifts), -0.5, out=shifts)
            got = np.zeros((count, len(W)), dtype=complex)
            for b in blocks:
                rows = phased[:count * (b.stop - b.start)].reshape(count, -1)
                np.multiply(at(f, (x + shifts[b]).T).reshape(rows.shape),
                            phase[b], out=rows)
                got += rows @ W[:, b].T
            got_th.append(got)
    values = [np.stack(o, axis=-1).reshape(head + stack + (len(pts),))
              for o in out]
    return np.stack(values) if stacked else values[0]


# ----------------------------------------------------------- twisted engine


@functools.lru_cache(maxsize=1)
def _twist_tables(m1, m2, spacing0, spacing1, theta):
    """star_twisted's tables for one grid and theta, built once, read-only.

    Returns (q, twist, untwist, nyquist): the regrouping q[p1, s] =
    (s - p1) mod m1, A[p2, q1] = e^{i theta/2 k2[p2] k1[q1]} (B is its
    conjugate), B shaped (m1, 1, m2) for a block, and the Nyquist-shell mask
    of the frequency grid.
    """
    k1 = 2.0 * np.pi * fftfreq(m1, spacing0)
    k2 = 2.0 * np.pi * fftfreq(m2, spacing1)
    nyquist = (np.abs(k1)[:, None] > NYQUIST_SHELL * np.abs(k1).max()) \
        | (np.abs(k2)[None, :] > NYQUIST_SHELL * np.abs(k2).max())
    q = (np.arange(m1)[None, :] - np.arange(m1)[:, None]) % m1
    twist = np.exp(1j * (0.5 * theta * np.outer(k1, k2)))
    untwist = np.conj(twist)[:, None, :]
    for table in (q, twist, untwist, nyquist):
        table.setflags(write=False)
    return q, twist, untwist, nyquist


def star_twisted(f, h, lat, theta):
    """Grid-valued f * h of two arrays on a 2-d periodic lattice, contracted.

    result(x_j) = (m1 m2)^-2 sum_{p,q} F(p) H(q) e^{i q.Theta p/2}
                  e^{2 pi i (p1 j1/m1 + p2 j2/m2 + q1 j1/m1 + q2 j2/m2)}
    with DFT coefficients F, H and physical frequencies k in the twist;
    theta is the float of Theta = [[0, theta], [-theta, 0]].  The
    twist (theta/2)(q1 p2 - q2 p1) splits into A[p2,q1] = e^{+i theta/2
    k2[p2] k1[q1]} and B[p1,q2] = e^{-i theta/2 k1[p1] k2[q2]}.  With
    s = (p1 + q1) mod m1 the two j1 waves are one, e^{2 pi i s j1/m1}: the
    p2 and q2 sums are inverse FFTs along j2 of (m1, C, m2) arrays indexed
    (p1, s, .) for a block of C rows s, their product is summed over p1,
    and one inverse FFT over s gives the result.  O(M^3 log M) work, no DFT
    matrix; C = BLOCK_BYTES // (16 m1 m2), at least 1, so the two block
    intermediates hold about 2 BLOCK_BYTES whatever the grid.  The index,
    A, B and the Nyquist mask are built once per (grid, theta) and shared
    by its products (_twist_tables).
    Warns when either factor has significant spectral content near the
    Nyquist shell (aliasing risk).  Returns (values, tails): the product on
    the grid and the two factors' spectral tail fractions.
    """
    if lat.dimension != 2 or lat.boundary != "periodic":
        raise ValueError("twisted engine needs a 2-d periodic lattice")
    m1, m2 = lat.points
    q, twist, untwist, nyquist = _twist_tables(m1, m2, lat.spacing(0),
                                               lat.spacing(1), float(theta))
    fr = fft2(np.asarray(f, dtype=complex))
    hr = fft2(np.asarray(h, dtype=complex))

    def shell_fraction(spec):
        a = np.abs(spec)
        tot = float(a.sum())
        if tot == 0.0:
            return 0.0
        return float(a[nyquist].sum()) / tot

    tails = (shell_fraction(fr), shell_fraction(hr))
    if max(tails) > TAIL_WARN:
        warnings.warn("twisted product: spectral tail fractions %.2e/%.2e "
                      "near Nyquist; result may be aliased" % tails,
                      RuntimeWarning, stacklevel=2)

    rows = np.empty((m1, m2), dtype=complex)
    for s in slices(m1, BLOCK_BYTES // (16 * m1 * m2)):
        # fa[p1, s, j2] = m2^-1 sum_p2 F[p1, p2] A[p2, q1] e^{2 pi i p2 j2/m2}
        fa = twist[q[:, s]]
        fa *= fr[:, None, :]
        ifft(fa, axis=-1, out=fa)
        # hb[p1, s, j2] = m2^-1 sum_q2 H[q1, q2] B[p1, q2] e^{2 pi i q2 j2/m2}
        hb = hr[q[:, s]]
        hb *= untwist
        ifft(hb, axis=-1, out=hb)
        # the sum over p1 at fixed s
        rows[s] = np.einsum("psj,psj->sj", fa, hb)
        del fa, hb          # freed before the next block's are built
    # one inverse DFT over s
    return ifft(rows, axis=0) / m1, tails


# ------------------------------------------------------- matrix-basis engine


def _genlaguerre(orders, k, xi):
    """Generalized Laguerre L_m^k(xi), m = 0 .. orders-1, for integer k >= 0.

    One run of the d/p recurrence gives every order: the value for order m
    is the loop's prefix up to m, times binom(m+k, m) by the multiplication
    formula over min(m, k) factors.  These are the operations, in the same
    order, of scipy.special.eval_genlaguerre for an integer degree (its
    binom takes the multiplication branch while min(m, k) < 20; its
    rescaling of products above 1e50 needs m + k in the hundreds and is left
    out), so the two agree bit for bit on every order the basis uses.
    Returns a list of arrays shaped like xi.
    """
    out = [np.ones_like(xi), -xi + k + 1][:orders]
    d = -xi / (k + 1)
    p = d + 1
    for j in range(1, orders - 1):      # p is L_m^k / binom(m+k, m), m = j+1
        c = j + k + 1.0
        d = -xi / c * p + (j / c) * d
        p = d + p
        m = j + 1
        num = den = 1.0
        small = min(m, k)
        for i in range(1, small + 1):
            num *= i + float(m + k) - small
            den *= i
        out.append(num / den * p)
    return out


def _radial_prefactor(m, k):
    return 2.0 * ((-1.0) ** m) * math.sqrt(math.factorial(m)
                                           / math.factorial(m + k))


def basis_values(m, n, theta, x, y):
    """Landau basis function f_mn evaluated at arbitrary points."""
    if theta <= 0:
        raise ValueError("matrix basis needs theta > 0")
    if n < m:
        return np.conj(basis_values(n, m, theta, x, y))
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = n - m
    xi = 2.0 * (x * x + y * y) / theta
    radial = (_radial_prefactor(m, k) * xi ** (k / 2.0)
              * _genlaguerre(m + 1, k, xi)[m] * np.exp(-xi / 2.0))
    if k == 0:
        return radial.astype(complex)
    return radial * np.exp(1j * k * np.arctan2(y, x))


def basis_stack(n, theta, x, y):
    """All f_mk for m, k < n at the given points; shape (n, n) + point shape.

    Equal entry for entry to basis_values: the same operations in the same
    order, with xi, the damping, the angle and each order difference's power
    and phase computed once, and every Laguerre order of one difference from
    one recurrence.
    """
    if theta <= 0:
        raise ValueError("matrix basis needs theta > 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xi = 2.0 * (x * x + y * y) / theta
    damp = np.exp(-xi / 2.0)
    phi = np.arctan2(y, x)
    out = np.empty((n, n) + xi.shape, dtype=complex)
    for k in range(n):                   # f_{m, m+k}, then its conjugate
        power = xi ** (k / 2.0)
        phase = np.exp(1j * k * phi) if k else None
        for m, lag in enumerate(_genlaguerre(n - k, k, xi)):
            radial = _radial_prefactor(m, k) * power * lag * damp
            if k == 0:
                out[m, m] = radial
            else:
                np.multiply(radial, phase, out=out[m, m + k, ...])
                np.conj(out[m, m + k], out=out[m + k, m, ...])
    return out


def basis_overflow_error(n, theta):
    """Why the Landau basis of n orders is not finite on the check grids, or None.

    Its largest xi is at the corner (-box, -box) of DELTA_GRID, which
    CROSS_ENGINE_GRID shares.  There a small theta or many orders make the
    polynomial part in xi overflow while the damping exp(-xi/2) underflows,
    and the basis value is inf * 0.
    """
    corner = -DELTA_GRID[0]
    with np.errstate(all="ignore"):
        finite = np.all(np.isfinite(basis_stack(n, theta, corner, corner)))
    if finite:
        return None
    return ("the Landau basis of %d orders is not finite at (%g, %g) for "
            "theta %r (use a larger theta or a smaller truncation)"
            % (n, corner, corner, theta))


def _basis_blocks(n, theta, lat):
    """basis_stack(n) over the sites of a 2-d `lat`, in blocks of sites.

    Yields (sites, basis): a slice of the flattened sites and the basis on
    them, shape (n*n, block), at most BLOCK_BYTES, so no n^2 x grid array
    is ever held.
    """
    x = lat.coordinate_array(0).reshape(-1)
    y = lat.coordinate_array(1).reshape(-1)
    for sites in slices(x.size, BLOCK_BYTES // (16 * n * n)):
        yield sites, basis_stack(n, theta, x[sites], y[sites]).reshape(n * n, -1)


def project(values, lat, theta, truncation=TRUNCATION_DEFAULT):
    """Coefficients c_mn = (2 pi theta)^-1 int conj(f_mn) f, f an array on lat.

    The basis is streamed over blocks of sites (_basis_blocks).
    """
    fw = (np.asarray(values, dtype=complex) * lat.site_weights()).reshape(-1)
    c = np.zeros(truncation ** 2, dtype=complex)
    for sites, basis in _basis_blocks(truncation, theta, lat):
        c += np.conj(basis) @ fw[sites]
    return c.reshape(truncation, truncation) / (2.0 * np.pi * theta)


def synthesize(coeffs, theta):
    """Callable (x, y) -> sum c_mn f_mn(x, y) for a 2-d c."""
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 2:
        raise ValueError("coefficients must be a 2-d array, got shape %s"
                         % (c.shape,))
    rows, cols = c.shape

    def fn(x, y):
        basis = basis_stack(max(rows, cols), theta, x, y)[:rows, :cols]
        return np.einsum("mn,mn...->...", c, basis)

    return fn


def operator_norm(coeffs):
    """Operator norm of the symbol = largest singular value of c."""
    return float(np.linalg.svd(np.asarray(coeffs, dtype=complex),
                               compute_uv=False)[0])


# ----------------------------------------------------------------- oracles


def gaussian_star_closed_form(a, b, theta, r2):
    """exp(-a r^2) * exp(-b r^2) in closed form (radial profile)."""
    den = 1.0 + a * b * theta * theta
    return np.exp(-(a + b) * np.asarray(r2) / den) / den


def damped_commutator_closed_form(theta, sigma):
    """[x g, y g]_*(0) for g = exp(-r^2/sigma^2)."""
    eps = theta ** 2 / sigma ** 4
    return 1j * theta / (1.0 + eps) ** 2


# ------------------------------------------------------------------ checks


def _gram(n, theta, lat):
    """gram[(m,k),(m',k')] = (2 pi theta)^-1 int conj(f_mk) f_m'k' on `lat`.

    Row (m,k) is the projection of the sampled f_m'k' onto f_mk, so column
    (m',k') holds the projected coefficients of f_m'k'.  Summed over blocks
    of sites (_basis_blocks): each block's weighted conjugate is one more
    block, never an n^2 x grid copy.
    """
    w = lat.site_weights().reshape(-1)
    gram = np.zeros((n * n, n * n), dtype=complex)
    for sites, basis in _basis_blocks(n, theta, lat):
        weighted = np.conj(basis)
        weighted *= w[sites]
        gram += weighted @ basis.T
    return gram / (2.0 * np.pi * theta)


def delta_algebra_check(theta=THETA_DEFAULT, truncation=TRUNCATION_DEFAULT):
    """Projected basis functions are the matrix units: max|gram - I|.

    Projects every sampled basis function f_mk onto the truncated basis; the
    coefficients must be the unit E_mk, so the Gram matrix must be the
    identity.  In the basis the star product is the matrix product, so the
    projected f_mn * f_kl meets delta_nk f_ml to about twice this residual;
    the engines' own delta rule is cross_engine_check's.  Also: the ground
    projector f_00 has operator norm 1.  The Gram matrix is streamed over
    blocks of the grid (_gram), so the memory held is the n^2 x n^2 Gram
    matrix and its residual, not the n^2 sampled basis functions.
    """
    n = truncation
    gram = _gram(n, theta, moyal_grid(*DELTA_GRID))
    # column (m,k) holds the projected coefficients of f_mk
    projection_residual = float(np.max(np.abs(gram - np.eye(n * n))))
    norm_residual = abs(operator_norm(gram[:, 0].reshape(n, n)) - 1.0)
    return {"truncation": n, "projection_residual": projection_residual,
            "norm_ground_residual": float(norm_residual)}


def cross_engine_check(theta=THETA_DEFAULT, truncation=CROSS_ENGINE_TRUNCATION):
    """All basis pairs f_mn * f_kl: quadrature and twisted vs the delta rule."""
    lat = moyal_grid(*CROSS_ENGINE_GRID)
    n = truncation

    # every basis product f_mk * f_Kl at once, shape (m, k, K, l, point)
    def basis(x, y):
        return basis_stack(n, theta, x, y)

    pts = np.asarray(CROSS_ENGINE_POINTS, dtype=float)
    got = star_quadrature(basis, basis, theta, pts, lat)
    # delta rule: f_mk * f_Kl = delta_kK f_ml
    want = np.einsum("kK,mlp->mkKlp", np.eye(n), basis(pts[:, 0], pts[:, 1]))
    worst_quad = float(np.max(np.abs(got - want)))

    # twisted engine on a few representative pairs, full grid: operands and
    # expected products from one basis stack
    size = 1 + max(max(pair) for pairs in TWISTED_PAIRS for pair in pairs)
    grid = basis_stack(size, theta, lat.coordinate_array(0),
                       lat.coordinate_array(1))
    worst_tw = 0.0
    tails = []
    for (m, k), (K, l) in TWISTED_PAIRS:
        got, tail = star_twisted(grid[m, k], grid[K, l], lat, theta)
        tails.append(max(tail))
        want = grid[m, l] if k == K else 0.0
        worst_tw = np.maximum(worst_tw, np.max(np.abs(got - want)))

    return {"truncation": n,
            "quadrature_vs_basis": worst_quad,
            "twisted_vs_basis": float(worst_tw),
            "twisted_tail_fraction": max(tails),   # largest Nyquist-shell share
            "twisted_tail_warnings": sum(t > TAIL_WARN for t in tails)}


def _damped(axis, sigma):
    """(x, y) -> (x, y)[axis] exp(-r^2/sigma^2): a damped coordinate."""
    return lambda x, y: (x, y)[axis] * np.exp(-(x * x + y * y) / sigma ** 2)


def commutation_check(theta=THETA_DEFAULT):
    """[x, y]_* = i theta via damped coordinates and Richardson extrapolation.

    For g = exp(-r^2/sigma^2) the damped commutator at the origin is exactly
    i theta (1 + eps)^-2 with eps = theta^2/sigma^4; evaluating at two sigmas
    and extrapolating linearly in eps removes the damping bias to O(eps^2).
    """
    raws = []
    eps = []
    closed = []
    for sigma in COMMUTATION_SIGMAS:
        lat = moyal_grid(COMMUTATION_BOX_FACTOR * sigma, COMMUTATION_POINTS)
        fx, fy = _damped(0, sigma), _damped(1, sigma)
        ab = star_quadrature(fx, fy, theta, [(0.0, 0.0)], lat)
        ba = star_quadrature(fy, fx, theta, [(0.0, 0.0)], lat)
        val = complex(ab[0] - ba[0])
        raws.append(val)
        e = theta ** 2 / sigma ** 4
        eps.append(e)
        closed.append(abs(val - damped_commutator_closed_form(theta, sigma)))
    e1, e2 = eps
    a1, a2 = raws
    extrap = (e1 * a2 - e2 * a1) / (e1 - e2)
    residual = abs(extrap - 1j * theta)
    return {"theta": float(theta), "sigmas": COMMUTATION_SIGMAS,
            "raw_imag": tuple(float(v.imag) for v in raws),
            "closed_form_residuals": tuple(float(c) for c in closed),
            "extrapolated_imag": float(extrap.imag),
            "residual": float(residual)}


def center_time_check(theta=THETA_DEFAULT, *, points):
    """Time is central iff Theta has vanishing first row/column.

    Checks [f, h]_* for f = t exp(-t^2/sigma^2) against three Theta choices:
    the zero matrix, a purely spatial block (both commutative time, residual
    at tolerance), and a t-x block (non-central, residual must exceed the
    contrast level).  One star_quadrature call on the Theta stack
    (0, -0, S, -S, M, -M) gives both products of every case, shape (6, 3)
    for the three points.  Returns one case record per Theta.
    """
    lat = moyal_grid(CENTER_BOX, points, dimension=3)
    s2 = CENTER_SIGMA ** 2

    def f_time(t, x, y):
        return t * np.exp(-t * t / s2)

    def h_gauss(t, x, y):
        return (1.0 + 0.3 * x + 0.2 * y) * np.exp(-(t * t + x * x + y * y) / s2)

    pts = [(0.0, 0.0, 0.0), (0.5, -0.3, 0.2), (1.0, 0.8, -0.6)]
    named = (("zero", ThetaMatrix(np.zeros((3, 3)))),
             ("spatial_block", ThetaMatrix.plane_block(theta, 3, (1, 2))),
             ("time_space_block", ThetaMatrix.plane_block(theta, 3, (0, 1))))
    # one call: f *_Theta h, then h *_Theta f = f *_{-Theta} h, for each
    # Theta, with h_gauss the transformed factor, sampled and transformed once
    stack = tuple(m for _, th in named for m in (th, ThetaMatrix(-th.entries)))
    both = star_quadrature(f_time, h_gauss, stack, pts, lat)
    return [{"theta_case": name, "commutative_time": th.commutative_time(),
             "commutator_residual": float(np.max(np.abs(fh - hf)))}
            for (name, th), fh, hf in zip(named, both[0::2], both[1::2])]


def twisted_identities_check(theta):
    """The twisted engine against four identities, all on one grid.

    Returns the residuals (gaussian, trace, associativity, involution):
    exp(-a r^2) * exp(-b r^2) against its closed form, max; int f*h =
    int f h on damped polynomials, relative; (f*g)*h vs f*(g*h), relative
    max; conj(f*h) = conj(h) * conj(f), max.
    """
    lat = moyal_grid(*IDENTITY_GRID)
    x, y = lat.coordinate_array(0), lat.coordinate_array(1)
    r2 = x * x + y * y
    weights = lat.site_weights()

    a, b = GAUSSIAN_WIDTHS
    got, _ = star_twisted(np.exp(-a * r2), np.exp(-b * r2), lat, theta)
    want = gaussian_star_closed_form(a, b, theta, r2)
    gaussian = float(np.max(np.abs(got - want)))

    fv = (1.0 + x) * np.exp(-r2 / 3.0)
    hv = (y - 0.5 * x) * np.exp(-r2 / 2.0)
    got, _ = star_twisted(fv, hv, lat, theta)
    lhs = complex(np.sum(got * weights))
    rhs = complex(np.sum(fv * hv * weights))
    trace = abs(lhs - rhs) / max(abs(rhs), MIN_SCALE)

    fv = np.exp(-r2 / 3.0)
    gv = x * np.exp(-r2 / 2.5)
    hv = (x + y) * np.exp(-r2 / 2.0)
    fg, _ = star_twisted(fv, gv, lat, theta)
    left, _ = star_twisted(fg, hv, lat, theta)
    gh, _ = star_twisted(gv, hv, lat, theta)
    right, _ = star_twisted(fv, gh, lat, theta)
    scale = max(float(np.max(np.abs(right))), MIN_SCALE)
    associativity = float(np.max(np.abs(left - right))) / scale

    fv = (x + 1j * y) * np.exp(-r2 / 2.0)
    hv = (1.0 - 1j * x) * np.exp(-r2 / 1.5)
    fh, _ = star_twisted(fv, hv, lat, theta)
    rev, _ = star_twisted(np.conj(hv), np.conj(fv), lat, theta)
    involution = float(np.max(np.abs(np.conj(fh) - rev)))
    return gaussian, trace, associativity, involution


def suite_truncation(truncation=None, quick=False):
    """The truncation run_moyal_suite runs; None is TRUNCATION_DEFAULT.
    quick runs QUICK_TRUNCATION and refuses any other truncation."""
    if quick and truncation not in (None, QUICK_TRUNCATION):
        raise ValueError("truncation %d cannot run with quick, which runs "
                         "truncation %d" % (truncation, QUICK_TRUNCATION))
    default = TRUNCATION_DEFAULT if truncation is None else truncation
    return QUICK_TRUNCATION if quick else default


def run_moyal_suite(theta=THETA_DEFAULT, truncation=None, quick=False):
    """All star-product checks; returns (checks, payload).

    The payload holds every measured quantity; its "passed" is all checks.
    """
    n = suite_truncation(truncation, quick)
    # first: its basis is the one factor that outgrows the box as theta grows
    cross = cross_engine_check(theta=theta,
                               truncation=min(n, CROSS_ENGINE_TRUNCATION))
    delta = delta_algebra_check(theta=theta, truncation=n)
    comm = commutation_check(theta=theta)
    center = center_time_check(
        theta=theta, points=QUICK_CENTER_POINTS if quick else CENTER_POINTS)
    gauss, tr, assoc, invol = twisted_identities_check(theta)
    central = [c["commutator_residual"] for c in center
               if c["commutative_time"]]
    mixed = [c["commutator_residual"] for c in center
             if not c["commutative_time"]]
    checks = (
        Check("matrix basis delta algebra", delta["projection_residual"], "<=",
              DELTA_TOL),
        Check("ground projector has norm 1", delta["norm_ground_residual"], "<=",
              NORM_TOL),
        Check("engines agree on basis products",
              np.max([cross["quadrature_vs_basis"], cross["twisted_vs_basis"]]),
              "<=", CROSS_ENGINE_TOL),
        Check("[x,y]_* = i theta (extrapolated)", comm["residual"], "<=",
              COMMUTATION_TOL),
        Check("time central if Theta row 0 = 0", np.max(central), "<=",
              CENTER_TOL),
        Check("time not central if Theta row 0 != 0", np.min(mixed), ">=",
              CENTER_CONTRAST),
        Check("gaussian closed form", gauss, "<=", GAUSSIAN_TOL),
        Check("trace property", tr, "<=", TRACE_TOL),
        Check("associativity", assoc, "<=", ASSOCIATIVITY_TOL),
        Check("involution", invol, "<=", INVOLUTION_TOL),
    )
    return checks, {
        "theta": float(theta),
        "delta_algebra": delta,
        "cross_engine": cross,
        "commutation": comm,
        "center_time": {"cases": center},
        "gaussian_oracle_residual": gauss,
        "trace_residual": tr,
        "associativity_residual": assoc,
        "involution_residual": invol,
        "membership": "assumed",
        **verdict(checks),
    }
