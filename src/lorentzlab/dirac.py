"""Lattice Dirac operators and the temporal-axiom checks.

The operator is D = -i gamma^mu e_mu d_mu with a flat spatial frame and an
optional conformal lapse u(t) > 0 entering through e^0 = u^{-1/2}:

    D phi = -i [ gamma^0 u^{-1/2} d_t + gamma^i d_i ] phi .

For the metric -u(t) dt^2 + dx^2 the spin connection vanishes (u depends on t
only), and the metric measure is sqrt(u) * cell weight; adjoints are taken
with respect to that weighted inner product.

The axiom suite works on D in stencil form (`StencilOperator`, numpy
only): one array of coefficients per diagonal, a site offset together with
a spinor diagonal a -> a XOR k, assembled from the one-dimensional stencils
of `lattice.gradient` and the gamma matrices.  The products, adjoints and
residuals of the suite are array operations on those diagonals.  The
probe-built `dense_matrix` is the independent route D is checked against:
by the tests, and by the suite itself up to ORACLE_LIMIT dense dimensions.
It pushes a block of unit probes at a time through the `gradient` stencils,
gamma contraction and vielbein of `apply`, stacked on an axis between the
lattice axes and the spinor axis, so every column equals `apply` on its
probe without one `apply` call per column.
On a periodic lattice D commutes with spatial translations (u depends on t
only), so the spectrum of the stencil <D>^2 is computed one spatial
momentum at a time, from the spatial Fourier transform of its diagonals.
The symbol of [D, f], and with the exact gradient dT = dt that of [D, T],
is `gradient_symbol` of the gradient values.

The temporal element T is the time coordinate *with its analytic gradient*
dT = dt: its commutator symbol [D,T](x) = -i gamma^0 u^{-1/2}(x) is exact per
site.  (Routing T through the difference stencil instead would smear the
commutator into an averaging operator and, on a periodic lattice, corrupt the
wrap rows, since t itself is not periodic.)  The axiom quantity is
u_ax = [D,T]^2 = 1/u per site; reports carry u_ax, u and the reciprocal
residual so both conventions stay visible.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .checks import Check, verdict
from .clifford import GammaRep, build_gamma, fundamental_symmetry, max_abs
from .lattice import Lattice, ScalarField, SpinorField, gradient

DENSE_LIMIT = 4096       # dense_dim of the clamped eigvalsh and elliptic_square
ORACLE_LIMIT = 512       # dense_dim up to which the suite probes dense_matrix
SITE_LIMIT = 65536       # lattice sites any command may allocate fields on
MOMENTUM_BYTES_LIMIT = 2 ** 25   # the periodic <D>^2 blocks, momentum_block_bytes

HERMITICITY_TOL = 1e-12
U_SQUARE_TOL = 1e-13
RECIPROCAL_TOL = 1e-12
SKEW_TOL = 1e-12
KREIN_TOL = 1e-12
COMMUTE_TOL = 1e-13
ELLIPTIC_EIG_FLOOR = -1e-10
ELLIPTIC_HERM_TOL = 1e-12
ASSEMBLY_TOL = 0.0       # the sparse D equals the probe-built D entry for entry
U_VARIATION_TOL = 1e-12  # spread of u up to which it counts as constant
COMMUTE_SAMPLES = 3      # random (f, psi) draws of the "[D,T] commutes" check


class DiracOperator:
    """D on `lattice`; `conformal_u` is None (u = 1) or a ScalarField on it."""

    def __init__(self, rep: GammaRep, lattice: Lattice, conformal_u=None):
        if rep.dimension != lattice.dimension:
            raise ValueError("gamma rep is %d-dimensional but lattice is %d-dimensional"
                             % (rep.dimension, lattice.dimension))
        self.rep = rep
        self.lattice = lattice
        if conformal_u is None:
            u = np.ones(lattice.shape)
        elif conformal_u.lattice != lattice:
            raise ValueError("conformal factor u lives on a different lattice")
        else:
            u = np.array(conformal_u.values, dtype=float)
        if np.any(u <= 0):
            raise ValueError("conformal factor u must be strictly positive")
        for axis in range(1, lattice.dimension):
            spread = np.max(np.ptp(u, axis=axis))
            if spread > U_VARIATION_TOL * max(1.0, np.max(np.abs(u))):
                raise ValueError("conformal factor u must depend on t only "
                                 "(axis %d spread %.3e)" % (axis, spread))
        self.u = u

    @property
    def spinor_dim(self):
        return self.rep.matrix_size

    @property
    def dense_dim(self):
        return self.lattice.site_count * self.spinor_dim

    def vielbein(self, axis):
        """e^mu diagonal factor: u^{-1/2} for time, 1 for space."""
        if axis == 0:
            return 1.0 / np.sqrt(self.u)
        return np.ones(self.lattice.shape)

    def apply(self, psi: SpinorField) -> SpinorField:
        if psi.lattice != self.lattice:
            raise ValueError("spinor lives on a different lattice")
        return SpinorField(self.lattice, self._apply_values(psi.values))

    def _apply_values(self, values):
        """D on an array of shape lattice.shape + (..., s).

        Axes between the lattice axes and the spinor axis stack independent
        spinor fields (the probes of `dense_matrix`).  `gradient` sees them
        folded into the spinor axis, so its axes are the lattice's.
        """
        lat = self.lattice
        folded = SpinorField(lat, values.reshape(lat.shape + (-1,)))
        stacked = (Ellipsis,) + (None,) * (values.ndim - lat.dimension)
        out = np.zeros_like(values)
        for mu in range(lat.dimension):
            dpsi = gradient(folded, mu).values.reshape(values.shape)
            term = np.einsum("ab,...b->...a", self.rep.matrices[mu], dpsi)
            out += self.vielbein(mu)[stacked] * term
        return -1j * out

    def commutator_with_scalar(self, f: ScalarField):
        """Symbol of [D, f]: the per-site matrix -i sum_mu e^mu gamma^mu (d_mu f).

        Returns the array of shape lattice.shape + (s, s).  Uses the lattice
        difference stencil for df; agrees with the operator route
        D(f psi) - f D(psi) to stencil order.
        """
        if f.lattice != self.lattice:
            raise ValueError("scalar lives on a different lattice")
        grads = [gradient(f, mu).values for mu in range(self.lattice.dimension)]
        return gradient_symbol(self.rep, grads, self.u)

    def temporal_commutator(self):
        """[D, T] at symbol level: -i gamma^0 u^{-1/2}(x), exact per site.

        Returns the array of shape lattice.shape + (s, s).
        """
        dt = [1.0] + [0.0] * (self.lattice.dimension - 1)
        return gradient_symbol(self.rep, dt, self.u)

    # ------------------------------------------------------------ matrices

    def sparse_matrix(self):
        """D as a StencilOperator, assembled from the 1-d stencils.

        Each axis contributes its `gradient` stencil times gamma^mu, scaled
        by e^mu, summed in axis order as `apply` sums them; the result
        equals `dense_matrix()` entry for entry.
        """
        lat, s = self.lattice, self.spinor_dim
        diagonals = {}
        for mu in range(lat.dimension):
            e = self.vielbein(mu)[..., None]
            along = [1] * (lat.dimension + 1)
            along[mu] = lat.points[mu]
            for step, coeff in _stencil(lat.points[mu], lat.spacing(mu), lat.boundary):
                sites = tuple(step if a == mu else 0 for a in range(lat.dimension))
                c = coeff.reshape(along)
                for k, g in _diagonals(self.rep.matrices[mu]):
                    _accumulate(diagonals, lat, sites, k, e * (c * g))
        return StencilOperator(lat, s, {o: -1j * v for o, v in diagonals.items()})

    def dense_matrix(self):
        """Dense matrix of D in row-major (site, spinor) order.

        Column j is D applied to the j-th unit probe, through the same
        `gradient` stencils, gamma contraction and vielbein as `apply`, so
        each column equals `apply` on its probe entry for entry.  The probes
        go through a block of columns at a time (`_probe_blocks`), stacked
        between the lattice axes and the spinor axis.  The diagonal assembly
        of `sparse_matrix` is not used: this is the route it is checked
        against.
        """
        n = self.dense_dim
        _require(_dense_error(n, "dense matrix"))
        lat, s = self.lattice, self.spinor_dim
        out = np.empty((n, n), dtype=complex)
        rows = out.reshape(lat.site_count, s, n)
        for cols in _probe_blocks(n):
            col = np.arange(cols.start, cols.stop)
            probes = np.zeros((lat.site_count, len(col), s), dtype=complex)
            probes[col // s, np.arange(len(col)), col % s] = 1.0
            image = self._apply_values(probes.reshape(lat.shape + probes.shape[1:]))
            rows[:, :, cols] = image.reshape(probes.shape).swapaxes(1, 2)
        return out

    def measure_weights(self):
        """Per-site metric measure sqrt(u) * quadrature weight."""
        return self.lattice.site_weights() * np.sqrt(self.u)

    def weighted_adjoint(self, a):
        """Adjoint of a dense matrix or StencilOperator w.r.t. the metric measure."""
        if isinstance(a, StencilOperator):
            return a.adjoint(self.measure_weights())
        w = np.repeat(self.measure_weights().reshape(-1), self.spinor_dim)
        return (a.conj().T * w[None, :]) / w[:, None]


def gradient_symbol(rep, grads, u):
    """-i sum_mu e^mu gamma^mu g_mu per point: the symbol of [D, f] for g = df.

    grads holds one gradient component per axis and u the lapse (e^0 =
    u^{-1/2}, e^i = 1), broadcast together; returns their shape + (s, s).
    """
    comps = np.broadcast_arrays(grads[0] * (1.0 / np.sqrt(u)), *grads[1:])
    out = np.zeros(comps[0].shape + (rep.matrix_size,) * 2, dtype=complex)
    for df, g in zip(comps, rep.matrices):
        out += df[..., None, None] * g
    return -1j * out


def _probe_blocks(n):
    """Slices of the n columns of `dense_matrix`, at most n // 8 wide.

    A block's probes, image and the temporaries of `_apply_values` are about
    six probe-sized arrays, so with eight blocks they stay within the size
    of the dense result.
    """
    step = max(1, n // 8)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _dense_error(n, what):
    if n > DENSE_LIMIT:
        return ("%s would be %d^2; limit is %d^2 (use a coarser lattice)"
                % (what, n, DENSE_LIMIT))
    return None


def _require(error):
    if error:
        raise ValueError(error)


def momentum_block_bytes(points, spinor_dim):
    """Bytes of the periodic <D>^2 blocks: momenta x (N_t s)^2 complex entries."""
    return int(np.prod(points[1:])) * (points[0] * spinor_dim) ** 2 * 16


def elliptic_size_error(points, boundary, spinor_dim):
    """Why the suite cannot take the <D>^2 spectrum on this lattice, or None.

    A periodic lattice holds its momentum blocks to MOMENTUM_BYTES_LIMIT; a
    clamped one needs a dense eigvalsh, held to DENSE_LIMIT dimensions.
    """
    if boundary != "periodic":
        return _dense_error(int(np.prod(points)) * spinor_dim, "dense eigvalsh")
    n = momentum_block_bytes(points, spinor_dim)
    if n > MOMENTUM_BYTES_LIMIT:
        return ("<D>^2 momentum blocks would take %d bytes; limit is %d "
                "(use a coarser lattice)" % (n, MOMENTUM_BYTES_LIMIT))
    return None


def _stencil(n, h, boundary):
    """The 1-d difference of `gradient` on n sites of spacing h, by offsets.

    Returns (offset, coefficients) pairs: row i has coefficients[i] in
    column i + offset.  A periodic axis has both central entries in every
    row (on a 2-site axis their columns coincide and they cancel, as the
    rolled difference does); a clamped axis also carries the one-sided
    `np.gradient(edge_order=2)` rows 0 and n - 1 at offsets 0, +-1, +-2, as
    coefficients that are zero in the interior and wherever the column
    would leave the axis.
    """
    forward = np.full(n, 1.0 / (2.0 * h))
    backward = np.full(n, -1.0 / (2.0 * h))
    if boundary == "periodic":
        return [(1, forward), (-1, backward)]
    forward[[0, -1]] = 2.0 / h, 0.0
    backward[[0, -1]] = 0.0, -2.0 / h
    centre, ahead, behind = np.zeros((3, n))
    centre[[0, -1]] = -1.5 / h, 1.5 / h
    ahead[0] = -0.5 / h
    behind[-1] = 0.5 / h
    return [(1, forward), (-1, backward), (0, centre), (2, ahead), (-2, behind)]


def _diagonals(blocks):
    """(k, blocks[..., a, a XOR k] over rows a) for each XOR diagonal k not zero.

    The s = 2^m spinor columns split into the s diagonals a -> a XOR k, which
    are disjoint; each gamma matrix, a tensor product of Pauli matrices,
    lies on exactly one of them.
    """
    rows = np.arange(blocks.shape[-1])
    diags = [(k, blocks[..., rows, rows ^ k]) for k in range(len(rows))]
    return [(k, d) for k, d in diags if np.any(d != 0)]


def _shift(values, sites, k=0):
    """values[x + sites, a XOR k] at every site x and spinor row a.

    Sites wrap at the lattice edges; k = 0 leaves a trailing axis alone, so
    the same shift serves per-site weights.
    """
    axes = [a for a, o in enumerate(sites) if o]
    if axes:
        values = np.roll(values, [-sites[a] for a in axes], axis=axes)
    if k:
        values = values[..., np.arange(values.shape[-1]) ^ k]
    return values


def _site_key(lattice, sites):
    """A site offset as diagonals are keyed: mod n on a periodic lattice.

    On a clamped lattice an offset of n or more addresses no entry: None.
    """
    if lattice.boundary == "periodic":
        return tuple(o % n for o, n in zip(sites, lattice.points))
    if any(abs(o) >= n for o, n in zip(sites, lattice.points)):
        return None
    return sites


def _accumulate(diagonals, lattice, sites, k, values):
    """Add values to the diagonal (sites, k), with sites reduced on `lattice`.

    Site offsets are taken mod n on a periodic lattice; on a clamped one an
    offset of n or more addresses no entry and is dropped.
    """
    sites = _site_key(lattice, sites)
    if sites is None:
        return
    key = (sites, k)
    diagonals[key] = diagonals[key] + values if key in diagonals else values


class StencilOperator:
    """A linear map on spinor fields, stored by the diagonals of its entries.

    A diagonal is a site offset o and a spinor diagonal k; it owns one array
    V of shape lattice.shape + (s,), and

        (A psi)[x, a] = sum_(o, k) V[x, a] psi[x + o, a XOR k].

    Offsets are reduced mod n on a periodic lattice, so offsets that alias
    share one array and every matrix entry lives in exactly one diagonal.
    On a clamped lattice V[x] is zero wherever x + o leaves it; products
    and adjoints keep that, so the wrapped reads of `_shift` there only
    ever meet zeros.  Each entry of a product is one multiplication, as in a
    dense product, when one factor has a single nonzero per row (the
    per-site blocks K = [D,T] and J); with several it may be summed in
    another order than a dense product, within rounding.
    """

    def __init__(self, lattice, spinor_dim, diagonals):
        self.lattice = lattice
        self.spinor_dim = spinor_dim
        self.diagonals = diagonals      # {(site offset, k): array}

    def _like(self, diagonals):
        return StencilOperator(self.lattice, self.spinor_dim, diagonals)

    def __matmul__(self, other):
        out = {}
        for (oa, ka), va in self.diagonals.items():
            for (ob, kb), vb in other.diagonals.items():
                _accumulate(out, self.lattice, tuple(a + b for a, b in zip(oa, ob)),
                            ka ^ kb, va * _shift(vb, oa, ka))
        return self._like(out)

    def __add__(self, other):
        out = dict(self.diagonals)
        for (o, k), v in other.diagonals.items():
            _accumulate(out, self.lattice, o, k, v)
        return self._like(out)

    def __mul__(self, scalar):
        return self._like({o: scalar * v for o, v in self.diagonals.items()})

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + (-1.0) * other

    def adjoint(self, weights=None):
        """Conjugate transpose; with per-site weights w, W^-1 A^H W.

        Entry by entry as the dense `weighted_adjoint`: the conjugated entry
        times w of its new column, divided by w of its new row.
        """
        out = {}
        for (o, k), v in self.diagonals.items():
            back = tuple(-a for a in o)
            w = np.conj(_shift(v, back, k))
            if weights is not None:
                w = w * _shift(weights, back)[..., None] / weights[..., None]
            _accumulate(out, self.lattice, back, k, w)
        return self._like(out)

    def hermiticity_residual(self):
        """Largest |entry| of A - A^H, as `(a - a.adjoint()).max_abs()`.

        Taken one diagonal at a time, so neither A^H nor the difference is
        ever held: A^H on the diagonal (-o, k) is the conjugate of A's (o, k)
        shifted back, and there it meets A's own (-o, k), if A has one.  A
        diagonal of A with no such partner is met by none either, and its
        largest |entry| is that of its conjugate.
        """
        worst = 0.0
        for (o, k), v in self.diagonals.items():
            back = tuple(-a for a in o)
            h = np.conj(_shift(v, back, k))
            mirror = self.diagonals.get((_site_key(self.lattice, back), k))
            diff = h if mirror is None else mirror - h
            worst = max(worst, float(np.abs(diff).max()))
        return worst

    def max_abs(self):
        """Largest |entry|, as `clifford.max_abs` of the dense matrix."""
        return max((float(np.abs(v).max()) for v in self.diagonals.values()),
                   default=0.0)

    def toarray(self):
        """The dense matrix in row-major (site, spinor) order."""
        lat, s = self.lattice, self.spinor_dim
        out = np.zeros((lat.site_count, s, lat.site_count, s), dtype=complex)
        sites = np.indices(lat.shape)
        spin = np.arange(s)
        for (o, k), v in self.diagonals.items():
            target = [i + a for i, a in zip(sites, o)]
            inside = np.ones(lat.shape, dtype=bool)
            if lat.boundary != "periodic":
                for t, n in zip(target, lat.points):
                    inside &= (t >= 0) & (t < n)
            row = np.flatnonzero(inside)[:, None]
            col = np.ravel_multi_index(target, lat.shape, mode="wrap")[inside]
            out[row, spin, col[:, None], spin ^ k] = v.reshape(-1, s)[row[:, 0]]
        return out.reshape(lat.site_count * s, -1)


def random_spinor(lattice, spinor_dim, rng):
    v = rng.standard_normal(lattice.shape + (spinor_dim,)) \
        + 1j * rng.standard_normal(lattice.shape + (spinor_dim,))
    return SpinorField(lattice, v)


@dataclass
class AxiomReport:
    hermiticity_residual: float
    u_square_deviation: float      # max per-site distance of [D,T]^2 from c(x) 1
    u_ax_min: float
    u_ax_max: float
    u_metric_min: float
    u_metric_max: float
    reciprocal_residual: float     # max |u_ax * u_metric - 1|
    skew_residual: float
    krein_skew_residual: float     # || (J D)^+ + J D ||
    krein_equiv_residual: float    # || D^+ + J D J ||
    commute_residual: float
    elliptic_hermiticity: float
    elliptic_min_eigenvalue: float
    assembly_residual: float = None  # max |sparse D - probe-built D|
    adjoints_exact: bool = True    # False on clamped lattices
    notes: tuple = ()

    @property
    def checks(self):
        checks = [
            Check("temporal commutator hermitian", self.hermiticity_residual,
                  "<=", HERMITICITY_TOL),
            Check("[D,T]^2 scalar", self.u_square_deviation, "<=", U_SQUARE_TOL),
            Check("[D,T]^2 positive", self.u_ax_min, ">", 0.0),
            Check("u_ax * u_metric = 1", self.reciprocal_residual, "<=",
                  RECIPROCAL_TOL),
            Check("[D,T] D skew-adjoint", self.skew_residual, "<=", SKEW_TOL),
            Check("Krein skewness (both forms)",
                  np.max([self.krein_skew_residual, self.krein_equiv_residual]),
                  "<=", KREIN_TOL),
            Check("[D,T] commutes with functions", self.commute_residual, "<=",
                  COMMUTE_TOL),
            Check("<D>^2 hermitian", self.elliptic_hermiticity, "<=",
                  ELLIPTIC_HERM_TOL),
            Check("<D>^2 non-negative", self.elliptic_min_eigenvalue, ">=",
                  ELLIPTIC_EIG_FLOOR),
        ]
        if self.assembly_residual is not None:
            checks.append(Check("sparse D equals probe-built D",
                                self.assembly_residual, "<=", ASSEMBLY_TOL))
        return tuple(checks)

    @property
    def passed(self):
        return verdict(self.checks)["passed"]


def _site_blocks(lattice, blocks):
    """StencilOperator of per-site (s, s) blocks, shape lattice.shape + (s, s).

    K = -i gamma^0 u^{-1/2} and J = i gamma^0 have one nonzero per block row,
    so every product with them is one multiplication per entry and equals
    the dense product exactly.
    """
    zero = (0,) * lattice.dimension
    return StencilOperator(lattice, blocks.shape[-1],
                           {(zero, k): v for k, v in _diagonals(blocks)})


def _elliptic_square(d, k):
    """-1/2 (D K D K + K D K D) from the matrices of D and K = [D,T].

    K D K D is added into the diagonals of D K D K, which are then scaled,
    in place: no sum is held beside the two products.  Each entry is the
    same sum and product as -0.5 * (dk @ dk + kd @ kd).
    """
    dk = d @ k
    m = dk @ dk
    del dk
    kd = k @ d
    for key, v in (kd @ kd).diagonals.items():
        if key in m.diagonals:
            m.diagonals[key] += v
        else:
            m.diagonals[key] = v
    for v in m.diagonals.values():
        v *= -0.5
    return m


def elliptic_square(D: DiracOperator):
    """<D>^2 = -1/2 (D K D K + K D K D) with K = [D,T], as a dense matrix."""
    _require(_dense_error(D.dense_dim, "<D>^2"))
    return _elliptic_square(D.sparse_matrix(), _site_blocks(
        D.lattice, D.temporal_commutator())).toarray()


def _momentum_blocks(m, momenta=slice(None)):
    """<D>^2 on a periodic lattice as one (N_t s)^2 block per spatial momentum.

    m is <D>^2 in stencil form.  u depends on t only, so every diagonal of m
    is the same at every spatial site, and the unitary spatial Fourier
    transform splits m into blocks, one for each momentum p: the diagonal
    (o, k) adds V[t, x=0, a] exp(2 pi i p.o_x / N_x) at row (t, a), column
    ((t + o_t) mod N_t, a XOR k).  Returns shape (momenta, N_t s, N_t s),
    momenta in row-major order over the spatial axes; `momenta` slices that
    order.
    """
    lat, s = m.lattice, m.spinor_dim
    nt, space = lat.points[0], lat.points[1:]
    waves = np.stack([g.reshape(-1) for g in np.meshgrid(
        *(np.arange(n) / n for n in space), indexing="ij")], axis=-1)[momenta]
    out = np.zeros((len(waves), nt, s, nt, s), dtype=complex)
    t = np.arange(nt)[:, None]
    a = np.arange(s)
    first = (slice(None),) + (0,) * len(space)      # the t axis at x = 0
    for (o, k), v in m.diagonals.items():
        phase = np.exp(2j * np.pi * (waves @ np.array(o[1:], dtype=float)))
        out[:, t, a, (t + o[0]) % nt, a ^ k] += phase[:, None, None] * v[first]
    return out.reshape(len(waves), nt * s, nt * s)


def _momentum_chunks(points, spinor_dim):
    """Slices of momenta whose blocks take at most MOMENTUM_BYTES_LIMIT / 8.

    The blocks, their symmetrised copy with its temporaries and the copy
    eigvalsh works on hold about four block-sized arrays at once, so a
    chunk's working set stays within half the limit.
    """
    momenta = int(np.prod(points[1:]))
    block = momentum_block_bytes(points, spinor_dim) // momenta
    step = max(1, MOMENTUM_BYTES_LIMIT // (8 * block))
    return [slice(i, i + step) for i in range(0, momenta, step)]


def _min_eigenvalue(blocks):
    """Smallest eigenvalue of the Hermitian parts of a stack of blocks."""
    sym = 0.5 * (blocks + np.conj(np.swapaxes(blocks, -1, -2)))
    return float(np.linalg.eigvalsh(sym).min())


def check_temporal_axioms(D: DiracOperator, seed=0):
    """Run the axiom residual suite on D in stencil form (`sparse_matrix`).

    Up to ORACLE_LIMIT dense dimensions that D is also compared with
    the probe-built `dense_matrix`.  The smallest eigenvalue of <D>^2 comes
    from `_momentum_blocks` of the same stencil <D>^2 whose hermiticity is
    checked, on a periodic lattice, built and diagonalised in chunks of
    momenta (`_momentum_chunks`); on a clamped lattice it needs a dense
    eigvalsh.  `elliptic_size_error` holds both to their limits.
    """
    lat = D.lattice
    s = D.spinor_dim
    periodic = lat.boundary == "periodic"
    _require(elliptic_size_error(lat.points, lat.boundary, s))
    K = D.temporal_commutator()

    herm = max_abs(K - np.conj(np.swapaxes(K, -1, -2)))

    ksq = np.einsum("...ab,...bc->...ac", K, K)
    c = np.einsum("...aa", ksq).real / s
    eye = np.eye(s)
    dev = max_abs(ksq - c[..., None, None] * eye)
    recip = float(np.max(np.abs(c * D.u - 1.0)))

    d = D.sparse_matrix()
    assembly = None
    if D.dense_dim <= ORACLE_LIMIT:
        assembly = max_abs(d.toarray() - D.dense_matrix())
    k = _site_blocks(lat, K)
    kd = k @ d
    skew = (D.weighted_adjoint(kd) + kd).max_abs()

    # Krein equivalence both ways with J = i gamma^0 (normalized symmetry):
    # J D skew-Hermitian, and D^dagger = -J D J.
    j = _site_blocks(lat, np.broadcast_to(fundamental_symmetry(D.rep), K.shape))
    jd = j @ d
    krein_skew = (D.weighted_adjoint(jd) + jd).max_abs()
    krein_equiv = (D.weighted_adjoint(d) + jd @ j).max_abs()

    rng = default_rng(seed)
    commute = 0.0
    for _ in range(COMMUTE_SAMPLES):
        f = rng.standard_normal(lat.shape)
        psi = random_spinor(lat, s, rng)
        lhs = np.einsum("...ab,...b->...a", K, f[..., None] * psi.values)
        rhs = f[..., None] * np.einsum("...ab,...b->...a", K, psi.values)
        commute = max(commute, float(np.abs(lhs - rhs).max()))

    m = _elliptic_square(d, k)
    ell_herm = m.hermiticity_residual()
    if periodic:
        ell_min = min(_min_eigenvalue(_momentum_blocks(m, chunk))
                      for chunk in _momentum_chunks(lat.points, s))
    else:
        ell_min = float(np.linalg.eigvalsh(
            (0.5 * (m + m.adjoint())).toarray()).min())

    notes = []
    if not periodic:
        notes.append("clamped lattice: difference adjoints hold only up to "
                     "boundary terms; skew residuals are approximate")
    uvar = float(np.ptp(D.u))
    if uvar > U_VARIATION_TOL:
        notes.append("non-constant u(t): continuum skew-self-adjointness of "
                     "[D,T]D acquires a bounded defect ~ d(u^{-1/2}); residual "
                     "reported honestly")
    if assembly is None:
        notes.append("dense_dim %d > %d: sparse D not compared with the "
                     "probe-built dense_matrix" % (D.dense_dim, ORACLE_LIMIT))
    notes.append("u_ax = [D,T]^2 = -g^00 = 1/u_metric; both conventions reported")

    return AxiomReport(
        hermiticity_residual=herm,
        u_square_deviation=dev,
        u_ax_min=float(c.min()),
        u_ax_max=float(c.max()),
        u_metric_min=float(D.u.min()),
        u_metric_max=float(D.u.max()),
        reciprocal_residual=recip,
        skew_residual=skew,
        krein_skew_residual=krein_skew,
        krein_equiv_residual=krein_equiv,
        commute_residual=commute,
        elliptic_hermiticity=ell_herm,
        elliptic_min_eigenvalue=ell_min,
        assembly_residual=assembly,
        adjoints_exact=(periodic and uvar <= U_VARIATION_TOL),
        notes=tuple(notes),
    )


def flat_operator(dimension, points, box=None, boundary="periodic", u=None):
    """Convenience constructor: cubic box (default side = points, h = 1).

    `points` is a count per axis or one count for every axis; `u` is None
    (flat) or an expression string for the lapse.
    """
    pts = tuple(points) if isinstance(points, (tuple, list)) else (points,) * dimension
    extents = tuple((0.0, float(p)) for p in pts) if box is None else tuple(box)
    lat = Lattice(extents, pts, boundary)
    ufield = None if u is None else ScalarField.from_expression(lat, u)
    return DiracOperator(build_gamma(dimension), lat, ufield)
