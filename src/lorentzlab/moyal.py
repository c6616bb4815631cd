"""Star products on R^d with constant noncommutativity matrix Theta.

Three independent engines for f * h:

* quadrature     (f*h)(x) = (2pi)^-d int ĥ(q) e^{iqx} f(x - Theta q/2) dq,
                 or the mirrored slot with f transformed and h(x + Theta p/2);
                 pointwise, any dimension; both factors are callables and
                 the transformed one must decay.  Either may return a stack
                 of functions, and one call then gives every product.
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

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np
from numpy.fft import fft2, fftfreq, fftn, ifft

from .checks import Check
from .lattice import Lattice, ScalarField

THETA_DEFAULT = 0.5
TRUNCATION_DEFAULT = 16
DELTA_TOL = 1e-10
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

# Each check's grid, fixed here and nowhere else: (box, points) is the
# periodic moyal_grid on [-box, box)^2 with `points` sites per axis.
DELTA_GRID = (7.0, 96)   # projection integrands: twice one function's spectrum
CROSS_ENGINE_GRID = (7.0, 64)
GAUSSIAN_GRID = (7.0, 64)
TRACE_GRID = (7.0, 64)
ASSOCIATIVITY_GRID = (7.0, 64)
INVOLUTION_GRID = (7.0, 64)
COMMUTATION_POINTS = 64  # on [-5 sigma, 5 sigma)^2 for each sigma
COMMUTATION_BOX_FACTOR = 5.0
COMMUTATION_SIGMAS = (4.0, 4.0 * math.sqrt(2.0))
CENTER_BOX = 6.0         # 3-d; the points per axis are center_time_check's
CENTER_SIGMA = 2.0
GAUSSIAN_WIDTHS = (0.5, 0.8)     # exp(-a r^2) * exp(-b r^2)
CROSS_ENGINE_POINTS = ((0.0, 0.0), (0.3, -0.4), (1.1, 0.7))


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

    @property
    def dimension(self):
        return self.entries.shape[0]

    def commutative_time(self):
        """Time central iff the first row and column vanish identically."""
        return bool(np.all(self.entries[0] == 0.0)
                    and np.all(self.entries[:, 0] == 0.0))

    def scalar_2d(self):
        """theta for an exact [[0, theta], [-theta, 0]] matrix."""
        if self.dimension != 2:
            raise ValueError("scalar_2d needs a 2x2 Theta")
        return float(self.entries[0, 1])


def _theta_entries(theta, dimension):
    if isinstance(theta, ThetaMatrix):
        e = theta.entries
    elif np.isscalar(theta):
        e = ThetaMatrix.plane_block(float(theta), dimension).entries
    else:
        e = ThetaMatrix(np.asarray(theta)).entries
    if e.shape[0] != dimension:
        raise ValueError("Theta dimension %d does not match grid dimension %d"
                         % (e.shape[0], dimension))
    return e


# ----------------------------------------------------------------- grids


def moyal_grid(box=7.0, points=96, dimension=2):
    """Periodic lattice on [-box, box)^d; axes (x,y) in 2-d, (t,x,y) above."""
    names = ("x", "y") if dimension == 2 else ("t", "x", "y", "z")[:dimension]
    return Lattice(tuple((-float(box), float(box)) for _ in range(dimension)),
                   tuple(int(points) for _ in range(dimension)),
                   boundary="periodic", axis_names=names)


def phys_fft(values, lat):
    """Continuum-normalized FFT: F(k) = sum f(x) e^{-ikx} dx; returns (F, axes).

    Transforms the trailing lat.dimension axes, so a stack of fields works.
    """
    F = fftn(np.asarray(values, dtype=complex),
             axes=tuple(range(-lat.dimension, 0)))
    ks = []
    for a in range(lat.dimension):
        k = 2.0 * np.pi * fftfreq(lat.points[a], lat.spacing(a))
        ks.append(k)
        shape = [1] * lat.dimension
        shape[a] = -1
        F *= np.exp(-1j * k * lat.extents[a][0]).reshape(shape)
    F *= float(np.prod(lat.spacings))
    return F, ks


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


# -------------------------------------------------------- quadrature engine


def star_quadrature(f, h, theta, points, lat, slot):
    """Pointwise f * h at the given points on any-dimensional grids.

    f and h are callables of the axis names of `lat`.  slot="second"
    samples and transforms h and shifts f by -Theta q/2; slot="first"
    transforms f and shifts h by +Theta p/2.  Both evaluate the same ordered
    product.  The transformed factor must decay inside the box: a boundary
    fraction (largest |value| on the outer shell over the largest |value|)
    above DECAY_REFUSE for any function of its stack is a ValueError.
    Either factor may return a stack of functions, shape S + the shape of
    its arguments; the values then hold every product, shape
    S_f + S_h + (len(points),).  Returns the values array.
    """
    d = lat.dimension
    th = _theta_entries(theta, d)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != d:
        raise ValueError("points must have %d coordinates" % d)
    if slot == "first":
        transformed, shifted, sign = f, h, +0.5
    elif slot == "second":
        transformed, shifted, sign = h, f, -0.5
    else:
        raise ValueError("slot must be 'first' or 'second', got %r" % (slot,))

    vals = np.asarray(transformed(**lat.environment()), dtype=complex)
    stack = vals.shape[:vals.ndim - d]
    bd = float(_boundary_fraction(vals, lat).max())
    if bd > DECAY_REFUSE:
        raise ValueError("transformed factor does not decay inside the box "
                         "(boundary fraction %.3e for slot %r); enlarge the "
                         "box" % (bd, slot))
    F, ks = phys_fft(vals, lat)
    del vals        # each point below holds shifted samples of the same size

    K = np.stack(np.meshgrid(*ks, indexing="ij"), axis=-1).reshape(-1, d)
    W = F.reshape(-1, len(K))
    wq = float(np.prod([k[1] - k[0] for k in ks])) / (2.0 * np.pi) ** d
    shifts = sign * (K @ th.T)
    out = []
    for x in pts:
        sv = np.asarray(shifted(**dict(zip(lat.axis_names, (x + shifts).T))),
                        dtype=complex)
        head = sv.shape[:-1]
        rows = np.broadcast_to(sv, head + (len(K),)).reshape(-1, len(K))
        w = W * (wq * np.exp(1j * (K @ x)))
        out.append(rows @ w.T if slot == "second" else w @ rows.T)
        del sv, rows, w     # one point's samples at a time
    shape = head + stack if slot == "second" else stack + head
    return np.stack(out, axis=-1).reshape(shape + (len(pts),))


# ----------------------------------------------------------- twisted engine


def star_twisted(f, h, lat, theta):
    """Grid-valued f * h of two arrays on a 2-d periodic lattice, contracted.

    result(x_j) = (m1 m2)^-2 sum_{p,q} F(p) H(q) e^{i q.Theta p/2}
                  e^{2 pi i (p1 j1/m1 + p2 j2/m2 + q1 j1/m1 + q2 j2/m2)}
    with DFT coefficients F, H and physical frequencies k in the twist.  The
    twist (theta/2)(q1 p2 - q2 p1) splits into A[p2,q1] = e^{+i theta/2
    k2[p2] k1[q1]} and B[p1,q2] = e^{-i theta/2 k1[p1] k2[q2]}.  With
    s = (p1 + q1) mod m1 the two j1 waves are one, e^{2 pi i s j1/m1}: the
    p2 and q2 sums are inverse FFTs along j2 of (m1, m1, m2) arrays indexed
    (p1, s, .), their product is summed over p1, and one inverse FFT over s
    gives the result.  O(M^3 log M) work, two M^3 intermediates, no DFT
    matrix.
    Warns when either factor has significant spectral content near the
    Nyquist shell (aliasing risk).  Returns (ScalarField, info).
    """
    if lat.dimension != 2 or lat.boundary != "periodic":
        raise ValueError("twisted engine needs a 2-d periodic lattice")
    half_theta = 0.5 * _theta_entries(theta, 2)[0, 1]
    m1, m2 = lat.points
    fr = fft2(np.asarray(f, dtype=complex))
    hr = fft2(np.asarray(h, dtype=complex))
    k1 = 2.0 * np.pi * fftfreq(m1, lat.spacing(0))
    k2 = 2.0 * np.pi * fftfreq(m2, lat.spacing(1))

    def shell_fraction(spec):
        a = np.abs(spec)
        tot = float(a.sum())
        if tot == 0.0:
            return 0.0
        mask = (np.abs(k1)[:, None] > 0.85 * np.abs(k1).max()) \
            | (np.abs(k2)[None, :] > 0.85 * np.abs(k2).max())
        return float(a[mask].sum()) / tot

    tails = (shell_fraction(fr), shell_fraction(hr))
    if max(tails) > TAIL_WARN:
        warnings.warn("twisted product: spectral tail fractions %.2e/%.2e "
                      "near Nyquist; result may be aliased" % tails,
                      RuntimeWarning, stacklevel=2)

    # (p1, q1) regrouped by s = (p1 + q1) mod m1: q[p1, s] = (s - p1) mod m1
    q = (np.arange(m1)[None, :] - np.arange(m1)[:, None]) % m1
    phase = half_theta * np.outer(k1, k2)
    # fa[p1, s, j2] = m2^-1 sum_p2 F[p1, p2] A[p2, q1] e^{2 pi i p2 j2/m2}
    fa = np.exp(1j * phase)[q]
    fa *= fr[:, None, :]
    ifft(fa, axis=-1, out=fa)
    # hb[p1, s, j2] = m2^-1 sum_q2 H[q1, q2] B[p1, q2] e^{2 pi i q2 j2/m2}
    hb = hr[q]
    hb *= np.exp(-1j * phase)[:, None, :]
    ifft(hb, axis=-1, out=hb)
    # the sum over p1 at fixed s, then one inverse DFT over s
    result = ifft(np.einsum("psj,psj->sj", fa, hb), axis=0) / m1
    info = {"tail_fractions": tails}
    return ScalarField(lat, result), info


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


def basis_field(m, n, theta, lat):
    return basis_values(m, n, theta, lat.coordinate_array(0),
                        lat.coordinate_array(1))


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


def project(values, lat, theta, truncation=TRUNCATION_DEFAULT):
    """Coefficients c_mn = (2 pi theta)^-1 int conj(f_mn) f."""
    if isinstance(values, ScalarField):
        values = values.values
    fw = np.asarray(values, dtype=complex) * lat.site_weights()
    basis = basis_stack(truncation, theta, lat.coordinate_array(0),
                        lat.coordinate_array(1))
    c = np.conj(basis).reshape(truncation ** 2, -1) @ fw.reshape(-1)
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


def star_matrix_basis(ca, cb):
    """Star product in the basis = matrix product of coefficient matrices."""
    ca = np.asarray(ca, dtype=complex)
    cb = np.asarray(cb, dtype=complex)
    if ca.shape != cb.shape:
        raise ValueError("coefficient matrices must share a truncation size")
    return ca @ cb


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


@dataclass
class DeltaAlgebraReport:
    truncation: int
    projection_residual: float
    product_residual: float
    identity_residual: float
    norm_ground_residual: float
    passed: bool


def delta_algebra_check(theta=THETA_DEFAULT, truncation=TRUNCATION_DEFAULT):
    """f_mn * f_kl = delta_nk f_ml through projection + matrix product.

    Projects every sampled basis function (should return the matrix units),
    multiplies projected coefficients pairwise, and compares against the
    exact delta rule.  Also: identity truncation acts trivially, and the
    ground projector f_00 has operator norm 1.
    """
    lat = moyal_grid(*DELTA_GRID)
    n = truncation
    w = lat.site_weights()
    basis = basis_stack(n, theta, lat.coordinate_array(0),
                        lat.coordinate_array(1)).reshape(n * n, -1)
    weighted = np.conj(basis)           # weighted in place: one n^2 x grid copy
    weighted *= w.reshape(-1)[None, :]
    gram = weighted @ basis.T / (2.0 * np.pi * theta)
    del weighted
    # orthonormality: gram[(m,k),(m',k')] must be the identity, so the
    # projected coefficient matrix of each sampled f_mk is the unit E_mk
    projection_residual = float(np.max(np.abs(gram - np.eye(n * n))))
    cs = np.ascontiguousarray(gram.T).reshape(n * n, n, n)

    # (c_mk c_Kl)_ij must be delta_mi delta_kK delta_lj; one left factor
    # c_mk at a time holds n^4 products, where all at once would hold n^6
    right = cs.transpose(1, 0, 2).reshape(n, -1)          # [r, (K, l, j)]
    eye = np.eye(n)
    product_residual = 0.0
    for a, left in enumerate(cs):                          # left = c_mk [i, r]
        m, k = divmod(a, n)
        got = (left @ right).reshape((n,) * 4)             # [i, K, l, j]
        got[m, k] -= eye
        product_residual = max(product_residual, float(np.max(np.abs(got))))

    ident = np.eye(n, dtype=complex)
    some = cs[1]
    identity_residual = float(np.max(np.abs(star_matrix_basis(ident, some) - some)))
    norm_residual = abs(operator_norm(cs[0]) - 1.0)
    return DeltaAlgebraReport(
        truncation=n,
        projection_residual=projection_residual,
        product_residual=product_residual,
        identity_residual=identity_residual,
        norm_ground_residual=float(norm_residual),
        passed=bool(projection_residual <= DELTA_TOL
                    and product_residual <= DELTA_TOL
                    and identity_residual <= DELTA_TOL
                    and norm_residual <= NORM_TOL),
    )


def gaussian_oracle_check(theta=THETA_DEFAULT):
    """Twisted-engine Gaussian product against the closed form; max residual."""
    a, b = GAUSSIAN_WIDTHS
    lat = moyal_grid(*GAUSSIAN_GRID)
    r2 = lat.coordinate_array(0) ** 2 + lat.coordinate_array(1) ** 2
    fv = np.exp(-a * r2)
    hv = np.exp(-b * r2)
    got, _ = star_twisted(fv, hv, lat, theta)
    want = gaussian_star_closed_form(a, b, theta, r2)
    return float(np.max(np.abs(got.values - want)))


@dataclass
class CrossEngineReport:
    truncation: int
    quadrature_vs_basis: float
    twisted_vs_basis: float
    passed: bool
    twisted_tail_fraction: float = 0.0   # largest Nyquist-shell fraction seen
    twisted_tail_warnings: int = 0       # twisted products above TAIL_WARN


def cross_engine_check(theta=THETA_DEFAULT, truncation=8):
    """All basis pairs f_mn * f_kl: quadrature and twisted vs the delta rule."""
    lat = moyal_grid(*CROSS_ENGINE_GRID)
    n = truncation

    # every basis product f_mk * f_Kl at once, shape (m, k, K, l, point)
    def basis(x, y):
        return basis_stack(n, theta, x, y)

    pts = np.asarray(CROSS_ENGINE_POINTS, dtype=float)
    got = star_quadrature(basis, basis, theta, pts, lat, slot="second")
    # delta rule: f_mk * f_Kl = delta_kK f_ml
    want = np.einsum("kK,mlp->mkKlp", np.eye(n), basis(pts[:, 0], pts[:, 1]))
    worst_quad = float(np.max(np.abs(got - want)))

    # twisted engine on a few representative pairs, full grid
    worst_tw = 0.0
    tails = []
    for (mn, kl) in (((0, 0), (0, 0)), ((0, 1), (1, 0)), ((0, 1), (1, 2)),
                     ((2, 1), (1, 3)), ((0, 1), (2, 2))):
        fv = basis_field(*mn, theta, lat)
        hv = basis_field(*kl, theta, lat)
        got, info = star_twisted(fv, hv, lat, theta)
        tails.append(max(info["tail_fractions"]))
        if mn[1] == kl[0]:
            want = basis_field(mn[0], kl[1], theta, lat)
        else:
            want = np.zeros(lat.shape, dtype=complex)
        worst_tw = max(worst_tw, float(np.max(np.abs(got.values - want))))

    return CrossEngineReport(truncation=n,
                             quadrature_vs_basis=worst_quad,
                             twisted_vs_basis=worst_tw,
                             passed=bool(worst_quad <= CROSS_ENGINE_TOL
                                         and worst_tw <= CROSS_ENGINE_TOL),
                             twisted_tail_fraction=max(tails),
                             twisted_tail_warnings=sum(t > TAIL_WARN for t in tails))


@dataclass
class CommutationReport:
    theta: float
    sigmas: tuple
    raw_imag: tuple
    closed_form_residuals: tuple
    extrapolated_imag: float
    residual: float
    passed: bool


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
        ab = star_quadrature(fx, fy, theta, [(0.0, 0.0)], lat, slot="second")
        ba = star_quadrature(fy, fx, theta, [(0.0, 0.0)], lat, slot="second")
        val = complex(ab[0] - ba[0])
        raws.append(val)
        e = theta ** 2 / sigma ** 4
        eps.append(e)
        closed.append(abs(val - damped_commutator_closed_form(theta, sigma)))
    e1, e2 = eps
    a1, a2 = raws
    extrap = (e1 * a2 - e2 * a1) / (e1 - e2)
    residual = abs(extrap - 1j * theta)
    return CommutationReport(theta=float(theta), sigmas=COMMUTATION_SIGMAS,
                             raw_imag=tuple(float(v.imag) for v in raws),
                             closed_form_residuals=tuple(float(c) for c in closed),
                             extrapolated_imag=float(extrap.imag),
                             residual=float(residual),
                             passed=bool(residual <= COMMUTATION_TOL))


@dataclass
class CenterTimeReport:
    cases: list
    passed: bool


def center_time_check(theta=THETA_DEFAULT, points=32):
    """Time is central iff Theta has vanishing first row/column.

    Checks [f, h]_* for f = t exp(-t^2/sigma^2) against three Theta choices:
    the zero matrix, a purely spatial block (both commutative time, residual
    at tolerance), and a t-x block (non-central, residual must exceed the
    contrast level).
    """
    lat = moyal_grid(CENTER_BOX, points, dimension=3)
    s2 = CENTER_SIGMA ** 2

    def f_time(t, x, y):
        return t * np.exp(-t * t / s2)

    def h_gauss(t, x, y):
        return (1.0 + 0.3 * x + 0.2 * y) * np.exp(-(t * t + x * x + y * y) / s2)

    pts = [(0.0, 0.0, 0.0), (0.5, -0.3, 0.2), (1.0, 0.8, -0.6)]
    zero = ThetaMatrix(np.zeros((3, 3)))
    spatial = ThetaMatrix.plane_block(theta, 3, axes=(1, 2))
    mixed = ThetaMatrix.plane_block(theta, 3, axes=(0, 1))

    cases = []
    for name, th in (("zero", zero), ("spatial_block", spatial),
                     ("time_space_block", mixed)):
        fh = star_quadrature(f_time, h_gauss, th, pts, lat, slot="second")
        hf = star_quadrature(h_gauss, f_time, th, pts, lat, slot="first")
        resid = float(np.max(np.abs(fh - hf)))
        central = th.commutative_time()
        case_ok = resid <= CENTER_TOL if central else resid >= CENTER_CONTRAST
        cases.append({"theta_case": name, "commutative_time": central,
                      "commutator_residual": resid, "ok": bool(case_ok)})
    return CenterTimeReport(cases=cases, passed=all(c["ok"] for c in cases))


def trace_check(theta=THETA_DEFAULT):
    """int f*h = int f h; relative residual on damped polynomials."""
    lat = moyal_grid(*TRACE_GRID)
    x, y = lat.coordinate_array(0), lat.coordinate_array(1)
    fv = (1.0 + x) * np.exp(-(x * x + y * y) / 3.0)
    hv = (y - 0.5 * x) * np.exp(-(x * x + y * y) / 2.0)
    got, _ = star_twisted(fv, hv, lat, theta)
    lhs = complex(np.sum(got.values * lat.site_weights()))
    rhs = complex(np.sum(fv * hv * lat.site_weights()))
    return abs(lhs - rhs) / max(abs(rhs), 1e-30)


def associativity_check(theta=THETA_DEFAULT):
    """(f*g)*h vs f*(g*h) on the twisted engine; relative max residual."""
    lat = moyal_grid(*ASSOCIATIVITY_GRID)
    x, y = lat.coordinate_array(0), lat.coordinate_array(1)
    r2 = x * x + y * y
    fv = np.exp(-r2 / 3.0)
    gv = x * np.exp(-r2 / 2.5)
    hv = (x + y) * np.exp(-r2 / 2.0)
    fg, _ = star_twisted(fv, gv, lat, theta)
    left, _ = star_twisted(fg.values, hv, lat, theta)
    gh, _ = star_twisted(gv, hv, lat, theta)
    right, _ = star_twisted(fv, gh.values, lat, theta)
    scale = max(float(np.max(np.abs(right.values))), 1e-30)
    return float(np.max(np.abs(left.values - right.values))) / scale


def involution_check(theta=THETA_DEFAULT):
    """conj(f*h) = conj(h) * conj(f); max residual."""
    lat = moyal_grid(*INVOLUTION_GRID)
    x, y = lat.coordinate_array(0), lat.coordinate_array(1)
    r2 = x * x + y * y
    fv = (x + 1j * y) * np.exp(-r2 / 2.0)
    hv = (1.0 - 1j * x) * np.exp(-r2 / 1.5)
    fh, _ = star_twisted(fv, hv, lat, theta)
    rev, _ = star_twisted(np.conj(hv), np.conj(fv), lat, theta)
    return float(np.max(np.abs(np.conj(fh.values) - rev.values)))


def run_moyal_suite(theta=THETA_DEFAULT, truncation=TRUNCATION_DEFAULT,
                    quick=False):
    """All star-product checks; returns (checks, payload).

    The payload holds every measured quantity; its "passed" is all checks.
    """
    n = 8 if quick else truncation
    delta = delta_algebra_check(theta=theta, truncation=n)
    cross = cross_engine_check(theta=theta, truncation=min(n, 8))
    comm = commutation_check(theta=theta)
    center = center_time_check(theta=theta, points=24 if quick else 32)
    gauss = gaussian_oracle_check(theta=theta)
    tr = trace_check(theta=theta)
    assoc = associativity_check(theta=theta)
    invol = involution_check(theta=theta)
    checks = (
        Check("matrix basis delta algebra", delta.passed,
              "projection %.3e, product %.3e"
              % (delta.projection_residual, delta.product_residual)),
        Check("engines agree on basis products", cross.passed,
              "quadrature %.3e, twisted %.3e"
              % (cross.quadrature_vs_basis, cross.twisted_vs_basis)),
        Check("[x,y]_* = i theta (extrapolated)", comm.passed,
              "residual %.3e" % comm.residual),
        Check("time central iff Theta row 0 = 0", center.passed,
              "; ".join("%s %.1e" % (c["theta_case"], c["commutator_residual"])
                        for c in center.cases)),
        Check("gaussian closed form", gauss <= GAUSSIAN_TOL,
              "residual %.3e" % gauss),
        Check("trace property", tr <= TRACE_TOL, "residual %.3e" % tr),
        Check("associativity", assoc <= ASSOCIATIVITY_TOL,
              "residual %.3e" % assoc),
        Check("involution", invol <= INVOLUTION_TOL, "residual %.3e" % invol),
    )
    return checks, {
        "theta": float(theta),
        "delta_algebra": asdict(delta),
        "cross_engine": asdict(cross),
        "commutation": asdict(comm),
        "center_time": asdict(center),
        "gaussian_oracle_residual": float(gauss),
        "trace_residual": float(tr),
        "associativity_residual": float(assoc),
        "involution_residual": float(invol),
        "membership": "assumed",
        "passed": all(c.passed for c in checks),
    }
