"""Star products on R^d with constant noncommutativity matrix Theta.

Three independent engines for f * h:

* quadrature     (f*h)(x) = (2pi)^-d int ĥ(q) e^{iqx} f(x - Theta q/2) dq,
                 or the mirrored slot with f transformed and h(x + Theta p/2);
                 pointwise, any dimension, needs one decaying factor and one
                 callable factor.
* twisted        full-grid product on a 2-d periodic lattice; the twist
                 phase (theta/2)(q1 p2 - q2 p1) splits into two one-variable
                 phase matrices, so the double frequency sum becomes three
                 contractions against the DFT matrices; exact pointwise
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
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft2, fftfreq, fftn

from . import expressions
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
    def from_upper_triangle(cls, values, dimension):
        """Fill Theta[i,j] for i<j row by row from a flat list."""
        need = dimension * (dimension - 1) // 2
        vals = [float(v) for v in values]
        if len(vals) != need:
            raise ValueError("need %d upper-triangle entries for dimension "
                             "%d, got %d" % (need, dimension, len(vals)))
        e = np.zeros((dimension, dimension))
        k = 0
        for i in range(dimension):
            for j in range(i + 1, dimension):
                e[i, j] = vals[k]
                e[j, i] = -vals[k]
                k += 1
        return cls(e)

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
        F = F * np.exp(-1j * k * lat.extents[a][0]).reshape(shape)
    return F * float(np.prod(lat.spacings)), ks


def _boundary_fraction(values):
    """max |f| on the outermost index shell relative to the global max."""
    v = np.abs(np.asarray(values))
    top = float(v.max())
    if top == 0.0:
        return 0.0
    edge = 0.0
    for a in range(v.ndim):
        edge = max(edge, float(np.take(v, 0, axis=a).max()),
                   float(np.take(v, -1, axis=a).max()))
    return edge / top


# -------------------------------------------------------------- elements


@dataclass
class MoyalElement:
    """A symbol for the star algebra: expression, callable, or coefficient
    matrix in the Landau basis.  Membership of unbounded symbols
    in the unitized multiplier algebra is recorded as declared, not proven.
    """

    kind: str
    payload: object
    theta: float = None
    label: str = ""
    membership: str = "assumed"

    @classmethod
    def from_expression(cls, text):
        expressions.parse_expression(text)
        return cls("expression", str(text), label=str(text))

    @classmethod
    def from_callable(cls, fn, label=""):
        return cls("callable", fn, label=label or getattr(fn, "__name__", "callable"))

    @classmethod
    def from_coefficients(cls, coeffs, theta, label="coefficients"):
        return cls("coefficients", np.asarray(coeffs, dtype=complex),
                   theta=float(theta), label=label)

    def callable_form(self):
        if self.kind == "expression":
            _, fn = expressions.compile_expression(self.payload)
            return fn
        if self.kind == "callable":
            return self.payload
        return synthesize(self.payload, self.theta)

    def sample(self, lat: Lattice):
        fn = self.callable_form()
        vals = fn(**lat.environment())
        return np.broadcast_to(np.asarray(vals, dtype=complex), lat.shape).copy()

    def to_dict(self):
        return {"kind": self.kind, "label": self.label,
                "membership": self.membership}


def _values_on(obj, lat):
    if isinstance(obj, MoyalElement):
        return obj.sample(lat)
    if isinstance(obj, ScalarField):
        if obj.lattice != lat:
            raise ValueError("field lives on a different lattice")
        return np.asarray(obj.values, dtype=complex)
    if isinstance(obj, np.ndarray):
        if obj.shape != lat.shape:
            raise ValueError("sample shape %s does not match lattice %s"
                             % (obj.shape, lat.shape))
        return np.asarray(obj, dtype=complex)
    if isinstance(obj, str):
        return np.asarray(ScalarField.from_expression(lat, obj).values,
                          dtype=complex)
    if callable(obj):
        vals = obj(**lat.environment())
        return np.broadcast_to(np.asarray(vals, dtype=complex), lat.shape).copy()
    raise TypeError("cannot sample object of type %r" % (type(obj).__name__,))


def _callable_of(obj):
    if isinstance(obj, MoyalElement):
        return obj.callable_form()
    if isinstance(obj, str):
        _, fn = expressions.compile_expression(obj)
        return fn
    if callable(obj):
        return obj
    return None


# -------------------------------------------------------- quadrature engine


def star_quadrature(f, h, theta, points, lat, slot="auto"):
    """Pointwise f * h at the given points on any-dimensional grids.

    slot="second" transforms h and shifts f by -Theta q/2; slot="first"
    transforms f and shifts h by +Theta p/2.  Both evaluate the same ordered
    product.  The transformed factor must decay inside the box and the
    shifted factor must be callable; the call refuses when neither slot
    qualifies.  Returns (values, info) with a heuristic error estimate from
    the spectral tail and the boundary decay of the transformed factor.
    """
    d = lat.dimension
    th = _theta_entries(theta, d)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != d:
        raise ValueError("points must have %d coordinates" % d)

    f_fn, h_fn = _callable_of(f), _callable_of(h)
    f_vals = _values_on(f, lat)
    h_vals = _values_on(h, lat)
    f_bd, h_bd = _boundary_fraction(f_vals), _boundary_fraction(h_vals)

    options = []
    if h_fn is not None:
        options.append(("first", f_bd))      # transform f, shift h
    if f_fn is not None:
        options.append(("second", h_bd))     # transform h, shift f
    if slot in ("first", "second"):
        options = [opt for opt in options if opt[0] == slot]
        if not options:
            raise ValueError("slot %r requires the shifted factor to be "
                             "callable" % slot)
    if not options:
        raise ValueError("star_quadrature needs at least one callable factor")
    use, bd = min(options, key=lambda o: o[1])
    if bd > DECAY_REFUSE:
        raise ValueError("transformed factor does not decay inside the box "
                         "(boundary fraction %.3e for slot %r, %.3e for the "
                         "mirror); enlarge the box" % (f_bd, "first", h_bd))

    if use == "first":
        F, ks = phys_fft(f_vals, lat)
        shifted, sign = h_fn, +0.5
    else:
        F, ks = phys_fft(h_vals, lat)
        shifted, sign = f_fn, -0.5

    K = np.stack(np.meshgrid(*ks, indexing="ij"), axis=-1).reshape(-1, d)
    W = F.reshape(-1)
    wq = float(np.prod([k[1] - k[0] for k in ks])) / (2.0 * np.pi) ** d

    # spectral tail of the transformed factor
    absW = np.abs(W)
    kmax = np.array([np.abs(k).max() for k in ks])
    tail_mask = np.any(np.abs(K) > 0.8 * kmax[None, :], axis=1)
    total = float(absW.sum())
    tail = float(absW[tail_mask].sum()) / total if total > 0 else 0.0

    names = lat.axis_names
    shifts = sign * (K @ th.T)
    out = np.empty(len(pts), dtype=complex)
    for i, x in enumerate(pts):
        args = x[None, :] + shifts
        env = {nm: args[:, a] for a, nm in enumerate(names)}
        fv = np.broadcast_to(np.asarray(shifted(**env), dtype=complex),
                             (len(K),))
        phase = np.exp(1j * (K @ x))
        out[i] = np.sum(W * phase * fv) * wq
    info = {"slot": use, "tail_fraction": tail, "boundary_fraction": bd,
            "error_estimate": (tail + bd) * total * wq}
    return out, info


# ----------------------------------------------------------- twisted engine


def star_twisted(f, h, lat, theta):
    """Grid-valued f * h on a 2-d periodic lattice as a separable contraction.

    result(x_j) = (m1 m2)^-2 sum_{p,q} F(p) H(q) e^{i q.Theta p/2}
                  e^{2 pi i (p1 j1/m1 + p2 j2/m2 + q1 j1/m1 + q2 j2/m2)}
    with DFT coefficients F, H and physical frequencies k in the twist.  The
    twist (theta/2)(q1 p2 - q2 p1) splits into A[p2,q1] = e^{+i theta/2
    k2[p2] k1[q1]} and B[p1,q2] = e^{-i theta/2 k1[p1] k2[q2]}, so the double
    sum is three contractions against the inverse DFT matrices with M^3
    intermediates.
    Warns when either factor has significant spectral content near the
    Nyquist shell (aliasing risk).  Returns (ScalarField, info).
    """
    if lat.dimension != 2 or lat.boundary != "periodic":
        raise ValueError("twisted engine needs a 2-d periodic lattice")
    half_theta = 0.5 * _theta_entries(theta, 2)[0, 1]
    fv = _values_on(f, lat)
    hv = _values_on(h, lat)
    m1, m2 = lat.points
    fr = fft2(fv)
    hr = fft2(hv)
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

    w1 = np.exp(2j * np.pi * np.outer(np.arange(m1), np.arange(m1)) / m1)
    w2 = np.exp(2j * np.pi * np.outer(np.arange(m2), np.arange(m2)) / m2)
    a = np.exp(1j * half_theta * np.outer(k2, k1))
    b = np.exp(-1j * half_theta * np.outer(k1, k2))
    # indices: (p, r) = (p1, p2), (q, s) = (q1, q2), output site (i, j)
    fa = np.einsum("pr,rq,rj->pqj", fr, a, w2, optimize=True)
    hb = np.einsum("qs,ps,sj->pqj", hr, b, w2, optimize=True)
    result = np.einsum("pi,qi,pqj->ij", w1, w1, fa * hb, optimize=True)
    info = {"tail_fractions": tails}
    return ScalarField(lat, result / (m1 * m2) ** 2), info


# ------------------------------------------------------- matrix-basis engine


def _genlaguerre(m, k, xi):
    """Generalized Laguerre L_m^k(xi) for integers m, k >= 0.

    The same operations, in the same order, as scipy.special.eval_genlaguerre
    for an integer degree: the d/p recurrence, then binom(m+k, m) by the
    multiplication formula over min(m, k) factors, the branch scipy's binom
    takes while min(m, k) < 20; its rescaling of products above 1e50 needs
    m + k in the hundreds and is left out.  So the two agree bit for bit on
    every order the basis uses.
    """
    if m == 0:
        return np.ones_like(xi)
    if m == 1:
        return -xi + k + 1
    d = -xi / (k + 1)
    p = d + 1
    for j in range(1, m):
        c = j + k + 1.0
        d = -xi / c * p + (j / c) * d
        p = d + p
    num = den = 1.0
    small = min(m, k)
    for i in range(1, small + 1):
        num *= i + float(m + k) - small
        den *= i
    return num / den * p


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
    pref = 2.0 * ((-1.0) ** m) * math.sqrt(math.factorial(m) / math.factorial(n))
    radial = pref * xi ** (k / 2.0) * _genlaguerre(m, k, xi) * np.exp(-xi / 2.0)
    if k == 0:
        return radial.astype(complex)
    return radial * np.exp(1j * k * np.arctan2(y, x))


def basis_field(m, n, theta, lat):
    return basis_values(m, n, theta, lat.coordinate_array(0),
                        lat.coordinate_array(1))


def basis_stack(n, theta, x, y):
    """All f_mk for m, k < n at the given points; shape (n, n) + point shape."""
    return np.stack([np.stack([basis_values(m, k, theta, x, y)
                               for k in range(n)]) for m in range(n)])


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

    def to_dict(self):
        return self.__dict__.copy()


def delta_algebra_check(theta=THETA_DEFAULT, truncation=TRUNCATION_DEFAULT,
                        box=7.0, points=96):
    """f_mn * f_kl = delta_nk f_ml through projection + matrix product.

    Projects every sampled basis function (should return the matrix units),
    multiplies projected coefficients pairwise, and compares against the
    exact delta rule.  Also: identity truncation acts trivially, and the
    ground projector f_00 has operator norm 1.
    """
    lat = moyal_grid(box, points)
    n = truncation
    w = lat.site_weights()
    basis = basis_stack(n, theta, lat.coordinate_array(0),
                        lat.coordinate_array(1)).reshape(n * n, -1)
    gram = (np.conj(basis) * w.reshape(-1)[None, :]) @ basis.T \
        / (2.0 * np.pi * theta)
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


def gaussian_oracle_check(theta=THETA_DEFAULT, a=0.5, b=0.8, box=7.0,
                          points=96):
    """Twisted-engine Gaussian product against the closed form; max residual."""
    lat = moyal_grid(box, points)
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

    def to_dict(self):
        return self.__dict__.copy()


def cross_engine_check(theta=THETA_DEFAULT, truncation=8, box=7.0, points=96,
                       eval_points=((0.0, 0.0), (0.3, -0.4), (1.1, 0.7))):
    """All basis pairs f_mn * f_kl: quadrature and twisted vs the delta rule."""
    lat = moyal_grid(box, points)
    th = _theta_entries(theta, 2)
    n = truncation

    # transformed factors: physical FFT of every basis function
    hmat, ks = phys_fft(basis_stack(n, theta, lat.coordinate_array(0),
                                    lat.coordinate_array(1)), lat)
    hmat = hmat.reshape(n * n, -1)
    eye = np.eye(n)
    K = np.stack(np.meshgrid(*ks, indexing="ij"), axis=-1).reshape(-1, 2)
    wq = float(np.prod([k[1] - k[0] for k in ks])) / (2.0 * np.pi) ** 2

    worst_quad = 0.0
    for x in np.asarray(eval_points, dtype=float):
        args = x[None, :] - 0.5 * (K @ th.T)
        fmat = basis_stack(n, theta, args[:, 0], args[:, 1]).reshape(n * n, -1)
        w = wq * np.exp(1j * (K @ x))
        got = fmat @ (hmat * w[None, :]).T        # [(m,k) left, (K,l) right]
        # delta rule: f_mk * f_Kl = delta_kK f_ml
        want = np.einsum("kK,ml->mkKl", eye,
                         basis_stack(n, theta, x[0], x[1])).reshape(n * n, -1)
        worst_quad = max(worst_quad, float(np.max(np.abs(got - want))))

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

    def to_dict(self):
        d = self.__dict__.copy()
        d["sigmas"] = list(self.sigmas)
        d["raw_imag"] = list(self.raw_imag)
        d["closed_form_residuals"] = list(self.closed_form_residuals)
        return d


def commutation_check(theta=THETA_DEFAULT, sigmas=(4.0, 4.0 * math.sqrt(2.0)),
                      points=64, box_factor=5.0):
    """[x, y]_* = i theta via damped coordinates and Richardson extrapolation.

    For g = exp(-r^2/sigma^2) the damped commutator at the origin is exactly
    i theta (1 + eps)^-2 with eps = theta^2/sigma^4; evaluating at two sigmas
    and extrapolating linearly in eps removes the damping bias to O(eps^2).
    """
    raws = []
    eps = []
    closed = []
    for sigma in sigmas:
        lat = moyal_grid(box_factor * sigma, points)

        def fx(x, y, s=sigma):
            return x * np.exp(-(x * x + y * y) / s ** 2)

        def fy(x, y, s=sigma):
            return y * np.exp(-(x * x + y * y) / s ** 2)

        ab, _ = star_quadrature(fx, fy, theta, [(0.0, 0.0)], lat, slot="second")
        ba, _ = star_quadrature(fy, fx, theta, [(0.0, 0.0)], lat, slot="second")
        val = complex(ab[0] - ba[0])
        raws.append(val)
        e = theta ** 2 / sigma ** 4
        eps.append(e)
        closed.append(abs(val - damped_commutator_closed_form(theta, sigma)))
    e1, e2 = eps
    a1, a2 = raws
    extrap = (e1 * a2 - e2 * a1) / (e1 - e2)
    residual = abs(extrap - 1j * theta)
    return CommutationReport(theta=float(theta), sigmas=tuple(sigmas),
                             raw_imag=tuple(float(v.imag) for v in raws),
                             closed_form_residuals=tuple(float(c) for c in closed),
                             extrapolated_imag=float(extrap.imag),
                             residual=float(residual),
                             passed=bool(residual <= COMMUTATION_TOL))


@dataclass
class CenterTimeReport:
    cases: list
    passed: bool

    def to_dict(self):
        return {"cases": [dict(c) for c in self.cases], "passed": self.passed}


def center_time_check(theta=THETA_DEFAULT, box=6.0, points=32, sigma=2.0):
    """Time is central iff Theta has vanishing first row/column.

    Checks [f, h]_* for f = t exp(-t^2/sigma^2) against three Theta choices:
    the zero matrix, a purely spatial block (both commutative time, residual
    at tolerance), and a t-x block (non-central, residual must exceed the
    contrast level).
    """
    lat = moyal_grid(box, points, dimension=3)

    def f_time(t, x, y, s=sigma):
        return t * np.exp(-t * t / s ** 2)

    def h_gauss(t, x, y, s=sigma):
        return (1.0 + 0.3 * x + 0.2 * y) * np.exp(-(t * t + x * x + y * y) / s ** 2)

    pts = [(0.0, 0.0, 0.0), (0.5, -0.3, 0.2), (1.0, 0.8, -0.6)]
    zero = ThetaMatrix(np.zeros((3, 3)))
    spatial = ThetaMatrix.plane_block(theta, 3, axes=(1, 2))
    mixed = ThetaMatrix.plane_block(theta, 3, axes=(0, 1))

    cases = []
    for name, th in (("zero", zero), ("spatial_block", spatial),
                     ("time_space_block", mixed)):
        fh, _ = star_quadrature(f_time, h_gauss, th, pts, lat, slot="second")
        hf, _ = star_quadrature(h_gauss, f_time, th, pts, lat, slot="first")
        resid = float(np.max(np.abs(fh - hf)))
        central = th.commutative_time()
        case_ok = resid <= CENTER_TOL if central else resid >= CENTER_CONTRAST
        cases.append({"theta_case": name, "commutative_time": central,
                      "commutator_residual": resid, "ok": bool(case_ok)})
    return CenterTimeReport(cases=cases, passed=all(c["ok"] for c in cases))


def trace_check(theta=THETA_DEFAULT, box=7.0, points=96):
    """int f*h = int f h; relative residual on damped polynomials."""
    lat = moyal_grid(box, points)
    x, y = lat.coordinate_array(0), lat.coordinate_array(1)
    fv = (1.0 + x) * np.exp(-(x * x + y * y) / 3.0)
    hv = (y - 0.5 * x) * np.exp(-(x * x + y * y) / 2.0)
    got, _ = star_twisted(fv, hv, lat, theta)
    lhs = complex(np.sum(got.values * lat.site_weights()))
    rhs = complex(np.sum(fv * hv * lat.site_weights()))
    return abs(lhs - rhs) / max(abs(rhs), 1e-30)


def associativity_check(theta=THETA_DEFAULT, box=7.0, points=64):
    """(f*g)*h vs f*(g*h) on the twisted engine; relative max residual."""
    lat = moyal_grid(box, points)
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


def involution_check(theta=THETA_DEFAULT, box=7.0, points=64):
    """conj(f*h) = conj(h) * conj(f); max residual."""
    lat = moyal_grid(box, points)
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
    # projection integrands have twice the single-function spectral extent,
    # so the delta check keeps the fine grid even in quick mode
    delta = delta_algebra_check(theta=theta, truncation=n, points=96)
    cross = cross_engine_check(theta=theta, truncation=min(n, 8), points=64)
    comm = commutation_check(theta=theta)
    center = center_time_check(theta=theta, points=24 if quick else 32)
    gauss = gaussian_oracle_check(theta=theta, points=64)
    tr = trace_check(theta=theta, points=64)
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
        "delta_algebra": delta.to_dict(),
        "cross_engine": cross.to_dict(),
        "commutation": comm.to_dict(),
        "center_time": center.to_dict(),
        "gaussian_oracle_residual": float(gauss),
        "trace_residual": float(tr),
        "associativity_residual": float(assoc),
        "involution_residual": float(invol),
        "membership": "assumed",
        "passed": all(c.passed for c in checks),
    }
