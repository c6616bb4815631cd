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
of `lattice.gradient` and the gamma matrices.  The products of the suite
are array operations on those diagonals, and its adjoint residuals
(`adjoint_residual`) stream the diagonals of an adjoint one at a time.  Site
offsets are taken mod n on every lattice; a clamped box is zero
coefficients wherever a column would leave it (`_stencil`).
`DiracOperator` picks the shape of those arrays when it is built, by one
rule: an axis is *waved* when it is periodic and u is exactly constant
along it, so that D commutes with translations along it.  Every per-site
array (lapse, weights, diagonals) keeps one site along each waved axis,
extent 1, and every site along the others; numpy broadcasting spreads it
over the lattice.  A constant lapse on a periodic lattice is stored once,
shape (1, ..., 1); a lapse u(t) once per time slice, (N_t, 1, ..., 1); a
clamped lattice keeps every site, and so does a periodic one along each
axis that a spread of u under U_VARIATION_TOL leaves unwaved.  Every
shape gives the same entries, so every residual is the same.  `D.u` and
`D.temporal_commutator()` are such arrays: the lapse and K = [D,T] on the
stored sites.
`elliptic_square(d, k, kd)` forms the stencil <D>^2 = -1/2 (D K D K +
K D K D) from the operators of D, K and K D.  The probe-built
`dense_matrix` is the independent route D is checked against: by the
tests, and by the suite itself up to ORACLE_LIMIT dense dimensions.
It pushes a block of unit probes at a time through `apply`, as one stack
of spinor fields, so every column equals `apply` on its probe without one
`apply` call per column.
The spectrum of the stencil <D>^2 is computed one momentum at a time, from
the Fourier transform of its diagonals over the waved axes: one block per
momentum over the sites of the other axes, s x s where every axis is
waved, (N_t s)^2 where u depends on t alone, and one dense block where no
axis is waved.
The symbol of [D, f], and with the exact gradient dT = dt that of [D, T],
is `gradient_symbol` of the gradient values.

The temporal element T is the time coordinate *with its analytic gradient*
dT = dt: its commutator symbol [D,T](x) = -i gamma^0 u^{-1/2}(x) is exact per
site.  (Routing T through the difference stencil instead would smear the
commutator into an averaging operator and, on a periodic lattice, corrupt the
wrap rows, since t itself is not periodic.)  The axiom quantity is
u_ax = [D,T]^2 = 1/u per site; the suite carries u_ax, u and the reciprocal
residual so both conventions stay visible.
"""

import math

import numpy as np
from numpy.random import default_rng

from .checks import Check
from .clifford import GammaRep, build_gamma, max_abs, require_valid
from .lattice import Lattice, ScalarField, SpinorField, gradient, slices

DENSE_LIMIT = 4096       # dense_dim of dense_matrix and of an unwaved <D>^2
ORACLE_LIMIT = 512       # dense_dim up to which the suite probes dense_matrix
SITE_LIMIT = 65536       # lattice sites any command may allocate fields on
MOMENTUM_BYTES_LIMIT = 2 ** 25   # one chunk of <D>^2 momentum blocks

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
    """D on `lattice`; `conformal_u` is None (u = 1) or a ScalarField on it.

    `waved` holds the axes D commutes with translations along: periodic,
    with u exactly constant along them.  Its per-site arrays live on the
    sites `_stored_sites` picks: one along each waved axis, every site along
    the others.  `u` is the lapse on those sites, read-only; like every
    per-site array of D it broadcasts against lattice-shaped fields.
    """

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
        if not np.all(np.isfinite(u) & (u > 0)):
            raise ValueError("conformal factor u must be finite and strictly "
                             "positive")
        spread = [np.ptp(u, axis=a).max() for a in range(lattice.dimension)]
        for axis in range(1, lattice.dimension):
            if spread[axis] > U_VARIATION_TOL * max(1.0, np.max(np.abs(u))):
                raise ValueError("conformal factor u must depend on t only "
                                 "(axis %d spread %.3e)" % (axis, spread[axis]))
        self.waved = () if lattice.boundary != "periodic" else tuple(
            a for a, w in enumerate(spread) if w == 0)
        self._stored = _stored_sites(lattice, self.waved)
        self.u = u[self._stored].copy()    # not a view that keeps u whole
        self.u.flags.writeable = False

    @property
    def spinor_dim(self):
        return self.rep.matrix_size

    @property
    def dense_dim(self):
        return self.lattice.site_count * self.spinor_dim

    def vielbein(self, axis):
        """e^mu diagonal factor: u^{-1/2} for time, 1 for space, on the
        stored sites (it broadcasts against lattice-shaped fields)."""
        if axis == 0:
            return 1.0 / np.sqrt(self.u)
        return np.ones(self.u.shape)

    def apply(self, psi: SpinorField) -> SpinorField:
        """D on a spinor field, or a stack of them (`dense_matrix` probes):
        `gradient` differences along the lattice axes only."""
        lat = self.lattice
        if psi.lattice != lat:
            raise ValueError("spinor lives on a different lattice")
        stacked = (Ellipsis,) + (None,) * (psi.values.ndim - lat.dimension)
        out = np.zeros_like(psi.values)
        for mu in range(lat.dimension):
            term = np.einsum("ab,...b->...a", self.rep.matrices[mu],
                             gradient(psi, mu).values)
            out += self.vielbein(mu)[stacked] * term
        return SpinorField(lat, -1j * out)

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

        Returns an array of the shape of `u` + (s, s), on the stored sites.
        """
        dt = [1.0] + [0.0] * (self.lattice.dimension - 1)
        return gradient_symbol(self.rep, dt, self.u)

    # ------------------------------------------------------------ matrices

    def sparse_matrix(self):
        """D as a StencilOperator, assembled from the 1-d stencils.

        Each axis contributes its `gradient` stencil times gamma^mu, scaled
        by e^mu, summed in axis order as `apply` sums them; the result
        equals `dense_matrix()` entry for entry.  Its diagonals have the
        shape of the stored sites: a periodic stencil has the same
        coefficient in every row, so an axis stored once keeps one.
        """
        lat, s = self.lattice, self.spinor_dim
        shape = self.u.shape
        diagonals = {}
        for mu in range(lat.dimension):
            e = self.vielbein(mu)[..., None]
            along = [1] * (lat.dimension + 1)
            along[mu] = shape[mu]
            for step, coeff in _stencil(lat.points[mu], lat.spacing(mu), lat.boundary):
                sites = tuple(step if a == mu else 0 for a in range(lat.dimension))
                c = coeff[:shape[mu]].reshape(along)
                for k, g in _diagonals(self.rep.matrices[mu]):
                    _accumulate(diagonals, lat, sites, k, e * (c * g))
        return StencilOperator(lat, s, {o: -1j * v for o, v in diagonals.items()})

    def dense_matrix(self):
        """Dense matrix of D in row-major (site, spinor) order.

        Column j is `apply` on the j-th unit probe.  The probes go through
        a block of columns at a time, as one stacked spinor field per block.
        The diagonal assembly of `sparse_matrix` is not used: this is the
        route it is checked against.
        """
        n = self.dense_dim
        _require(_dense_error(n, "dense matrix"))
        lat, s = self.lattice, self.spinor_dim
        out = np.empty((n, n), dtype=complex)
        rows = out.reshape(lat.site_count, s, n)
        # a block's probes, image and the temporaries of `apply` are about
        # six probe-sized arrays, so eight blocks stay within the result
        for cols in slices(n, n // 8):
            col = np.arange(cols.start, cols.stop)
            probes = np.zeros((lat.site_count, len(col), s), dtype=complex)
            probes[col // s, np.arange(len(col)), col % s] = 1.0
            stack = SpinorField(lat, probes.reshape(lat.shape + probes.shape[1:]))
            image = self.apply(stack).values
            rows[:, :, cols] = image.reshape(probes.shape).swapaxes(1, 2)
        return out

    def measure_weights(self):
        """Per-site metric measure sqrt(u) * quadrature weight, on the stored
        sites as `vielbein`."""
        return self.lattice.site_weights()[self._stored] * np.sqrt(self.u)


def _stored_sites(lattice, waved):
    """The index of the sites per-site arrays keep: x = 0 along each waved
    axis, every site along the others."""
    return tuple(slice(0, 1) if a in waved else slice(None)
                 for a in range(lattice.dimension))


def gradient_symbol(rep, grads, u):
    """-i sum_mu e^mu gamma^mu g_mu per point: the symbol of [D, f] for g = df.

    grads holds one gradient component per axis and u the lapse (e^0 =
    u^{-1/2}, e^i = 1), broadcast together; returns their shape + (s, s).
    """
    comps = np.broadcast_arrays(grads[0] * (1.0 / np.sqrt(u)), *grads[1:])
    return -1j * np.tensordot(np.stack(comps, axis=-1), np.stack(rep.matrices), 1)


def _dense_error(n, what):
    if n > DENSE_LIMIT:
        return ("%s would be %d^2; limit is %d^2 (use a coarser lattice)"
                % (what, n, DENSE_LIMIT))
    return None


def _require(error):
    if error:
        raise ValueError(error)


def momentum_block_bytes(sites, spinor_dim):
    """Bytes of one <D>^2 momentum block over `sites` lattice sites:
    (sites s)^2 complex entries."""
    return (sites * spinor_dim) ** 2 * 16


def elliptic_size_error(D):
    """Why the suite cannot take the <D>^2 spectrum of D, or None: the
    `_momentum_blocks` over D's waved axes cannot be held.

    With no axis waved the one block is the dense <D>^2, held to
    DENSE_LIMIT dimensions.  Otherwise one `_momentum_chunks` chunk of
    blocks is held at a time, and three times one block is held to
    MOMENTUM_BYTES_LIMIT: a chunk of one (N_t s)^2 block grows the peak
    resident set by about 2.2 blocks (2-d, u = 2+sin(t), 10.7 MiB and
    16.0 MiB blocks at N_t = 418 and 512), eigvalsh's workspace included,
    so charging two would admit lattices that overrun the limit.  A chunk
    of several momenta takes at most an eighth of the limit, so only a
    chunk of one block can overfill it.
    """
    lat, s = D.lattice, D.spinor_dim
    sites = lat.site_count // math.prod(lat.points[a] for a in D.waved)
    if not D.waved:
        return _dense_error(sites * s, "dense eigvalsh")
    n = 3 * momentum_block_bytes(sites, s)
    if n > MOMENTUM_BYTES_LIMIT:
        return ("one <D>^2 momentum block would need about %d bytes of "
                "working set; limit is %d (use a coarser lattice)"
                % (n, MOMENTUM_BYTES_LIMIT))
    return None


def _stencil(n, h, boundary):
    """The 1-d difference of `gradient` on n sites of spacing h, by offsets.

    Returns (offset, coefficients) pairs: row i has coefficients[i] in
    column i + offset.  A periodic axis has both central entries in every
    row (on a 2-site axis their columns coincide and they cancel, as the
    rolled difference does); a clamped axis also carries the one-sided
    `np.gradient(edge_order=2)` rows 0 and n - 1 at offsets 0, +-1, +-2, as
    coefficients that are zero in the interior and wherever the column
    would leave the axis: offsets are keyed mod n on every lattice, so
    those zeros alone keep a clamped operator from wrapping.
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
    the same shift serves per-site weights.  An axis values is stored once
    on (extent 1) holds the same value at every site, so it is not rolled.
    """
    axes = [a for a, o in enumerate(sites) if o and values.shape[a] > 1]
    if axes:
        values = np.roll(values, [-sites[a] for a in axes], axis=axes)
    if k:
        values = values[..., np.arange(values.shape[-1]) ^ k]
    return values


def _site_key(lattice, sites):
    """A site offset as diagonals are keyed: mod n along every axis."""
    return tuple(o % n for o, n in zip(sites, lattice.points))


def _accumulate(diagonals, lattice, sites, k, values):
    """Add values to the diagonal (sites, k), with sites reduced mod n."""
    key = (_site_key(lattice, sites), k)
    diagonals[key] = diagonals[key] + values if key in diagonals else values


class StencilOperator:
    """A linear map on spinor fields, stored by the diagonals of its entries.

    A diagonal is a site offset o and a spinor diagonal k; it owns one array
    V of shape lattice.shape + (s,), and

        (A psi)[x, a] = sum_(o, k) V[x, a] psi[x + o, a XOR k].

    V may also have extent 1 along lattice axes, as the operators of a
    `DiracOperator` have along its waved axes, which it commutes with
    translations along: shape (N_t, 1, ..., 1, s), one row per time slice,
    when those are the spatial axes, or (1, ..., 1, s), one row for the
    whole lattice, when they are all.  numpy broadcasting spreads V over
    those axes, and `_shift` does not roll them (a shift along them is the
    identity), so products and adjoint residuals need no second code path.

    Offsets are reduced mod n on every lattice, so offsets that alias share
    one array and every matrix entry lives in exactly one diagonal.  A box
    without wrap is zero coefficients: V[x] is zero wherever x + o leaves
    the box, and products and adjoint diagonals keep those zeros, so the
    wrapped reads of `_shift` there only ever meet zeros.  Each entry of a
    product is one multiplication, as in a dense product, when one factor
    has a single nonzero per row (the per-site blocks K = [D,T] and J);
    with several it may be summed in another order, within rounding.
    """

    def __init__(self, lattice, spinor_dim, diagonals):
        self.lattice = lattice
        self.spinor_dim = spinor_dim
        self.diagonals = diagonals      # {(site offset, k): array}

    def _like(self, diagonals):
        return StencilOperator(self.lattice, self.spinor_dim, diagonals)

    def product_diagonals(self, other):
        """Yield (key, array) per diagonal of self @ other, formed when yielded.

        Keys come in first-appearance order, and each diagonal sums the same
        pair products in the same pair order as one pass over all pairs.
        """
        terms = {}
        for (oa, ka), va in self.diagonals.items():
            for (ob, kb), vb in other.diagonals.items():
                sites = _site_key(self.lattice, tuple(a + b for a, b in zip(oa, ob)))
                terms.setdefault((sites, ka ^ kb), []).append((va, vb, oa, ka))
        for key, pairs in terms.items():
            total = None
            for va, vb, oa, ka in pairs:
                term = va * _shift(vb, oa, ka)
                total = term if total is None else total + term
            yield key, total

    def __matmul__(self, other):
        return self._like(dict(self.product_diagonals(other)))

    def _adjoint_diagonals(self, weights):
        """Yield (key, array) per diagonal of W^-1 A^H W, formed when yielded.

        A^H on the diagonal (-o, k), a distinct key for each (o, k), is the
        conjugate of A's (o, k) shifted back; with per-site weights w each
        entry is also multiplied by w of its new column and divided by w of
        its new row.
        """
        for (o, k), v in self.diagonals.items():
            back = tuple(-a for a in o)
            h = np.conj(_shift(v, back, k))
            if weights is not None:
                h = h * _shift(weights, back)[..., None] / weights[..., None]
            yield (_site_key(self.lattice, back), k), h

    def adjoint_residual(self, other, combine=np.add, weights=None):
        """Largest |entry| of combine(W^-1 A^H W, B), B = other, as `max_abs`
        of the dense result: np.add measures A^dagger = -B, np.subtract
        A^dagger = B.

        Taken one diagonal at a time, so neither the adjoint nor the result
        is ever held: each diagonal of the adjoint meets B's on the same
        key, if B has one, and every diagonal of B that none met counts by
        itself.  np.maximum keeps a NaN.
        """
        worst = 0.0
        unmet = dict(other.diagonals)
        for key, h in self._adjoint_diagonals(weights):
            b = unmet.pop(key, None)
            if b is not None:
                h = combine(h, b)
            worst = np.maximum(worst, np.abs(h).max())
        for b in unmet.values():
            worst = np.maximum(worst, np.abs(b).max())
        return float(worst)

    def toarray(self):
        """The dense matrix in row-major (site, spinor) order."""
        lat, s = self.lattice, self.spinor_dim
        out = np.zeros((lat.site_count, s, lat.site_count, s), dtype=complex)
        sites = np.indices(lat.shape)
        row = np.arange(lat.site_count)[:, None]
        spin = np.arange(s)
        for (o, k), v in self.diagonals.items():
            v = np.broadcast_to(v, lat.shape + (s,))
            target = [i + a for i, a in zip(sites, o)]
            col = np.ravel_multi_index(target, lat.shape, mode="wrap").reshape(-1, 1)
            out[row, spin, col, spin ^ k] = v.reshape(-1, s)
        return out.reshape(lat.site_count * s, -1)


def random_spinor(lattice, spinor_dim, rng):
    v = rng.standard_normal(lattice.shape + (spinor_dim,)) \
        + 1j * rng.standard_normal(lattice.shape + (spinor_dim,))
    return SpinorField(lattice, v)


def _site_blocks(lattice, blocks):
    """StencilOperator of per-site (s, s) blocks, shape lattice.shape + (s, s).

    K = -i gamma^0 u^{-1/2} and J = i gamma^0 have one nonzero per block row,
    so every product with them is one multiplication per entry and equals
    the dense product exactly.
    """
    zero = (0,) * lattice.dimension
    return StencilOperator(lattice, blocks.shape[-1],
                           {(zero, k): v for k, v in _diagonals(blocks)})


def elliptic_square(d, k, kd):
    """<D>^2 = -1/2 (D K D K + K D K D) from the StencilOperators of D,
    K = [D,T] and K D, as a StencilOperator.

    Each diagonal of K D K D is added into the diagonals of D K D K as soon
    as it is formed, and the sum is then scaled in place: K D K D is never
    held whole, and no sum beside the products.  Each entry is the same sum
    and product as -0.5 * (dk @ dk + kd @ kd).  Both products pair the same
    diagonals of D and K is site-diagonal, so D K D K has every diagonal of
    K D K D.
    """
    dk = d @ k
    m = dk @ dk
    del dk
    for key, v in kd.product_diagonals(kd):
        m.diagonals[key] += v
    for v in m.diagonals.values():
        v *= -0.5
    return m


def _momentum_blocks(m, waved, momenta=slice(None)):
    """<D>^2 as one (n s)^2 block per momentum over the `waved` axes.

    m is <D>^2 in stencil form and `waved` the waved axes of its D: every
    diagonal of m is the same at every site along them.  The unitary
    Fourier transform over those axes splits m into one block per momentum
    p, over the n sites x of the other axes: the diagonal (o, k) adds
    V[x, a] exp(2 pi i p.o / N), V read at index 0 along the waved axes and
    p and o over them, at row (x, a), column (x + o mod N, a XOR k), x and
    o over the other axes.  With every axis waved each block is s x s; with
    none the one block is the dense matrix of m.  Returns shape (momenta,
    n s, n s), momenta in row-major order over the waved axes; `momenta`
    slices that order.
    """
    lat, s = m.lattice, m.spinor_dim
    sizes = [lat.points[a] for a in waved]
    still = [a for a in range(lat.dimension) if a not in waved]
    index = np.arange(math.prod(sizes))[momenta]
    # p / N, row-major in p (unravel_index takes no empty shape)
    waves = (np.stack(np.unravel_index(index, sizes), axis=-1) / np.array(sizes)
             if waved else np.zeros((len(index), 0)))
    first = tuple(0 if a in waved else slice(None) for a in range(lat.dimension))
    # diagonals that land on the same entries of a block, one (o mod N, k)
    # over the other axes apiece, are summed per momentum before one
    # scatter into the blocks
    groups = {}
    for (o, k), v in m.diagonals.items():
        groups.setdefault((tuple(o[a] for a in still), k), []).append(
            ([o[a] for a in waved], v[first].reshape(-1, s)))
    shape = [lat.points[a] for a in still]
    n = math.prod(shape)
    grid = np.arange(n).reshape(shape)      # the row of each site x
    out = np.zeros((len(index), n, s, n, s), dtype=complex)
    x, a = np.arange(n)[:, None], np.arange(s)
    for (o, k), members in groups.items():
        total = 0.0
        for w, v in members:
            phase = np.exp(2j * np.pi * (waves @ np.array(w, dtype=float)))
            total = total + phase[:, None, None] * v
        out[:, x, a, _shift(grid, o).reshape(-1, 1), a ^ k] = total
    return out.reshape(len(index), n * s, n * s)


def _momentum_chunks(m, waved):
    """Slices of the momenta of `_momentum_blocks(m, waved)` whose blocks
    take at most MOMENTUM_BYTES_LIMIT / 8, or one momentum each where a
    block alone is larger.

    The blocks, symmetrised in place, and the copy of one block eigvalsh
    works on hold at most two block-sized arrays at once, so a chunk's
    working set stays within a quarter of the limit, or within the limit
    where `elliptic_size_error` admits one larger block.
    """
    momenta = math.prod(m.lattice.points[a] for a in waved)
    block = momentum_block_bytes(m.lattice.site_count // momenta, m.spinor_dim)
    return slices(momenta, MOMENTUM_BYTES_LIMIT // (8 * block))


def _min_eigenvalue(blocks):
    """Smallest eigenvalue of the Hermitian parts of blocks it overwrites.

    eigvalsh reads the lower triangle alone, so only that is symmetrised,
    (b_ij + conj(b_ji)) / 2 for j <= i, one row at a time: the temporary
    is one row of each block.
    """
    for i in range(blocks.shape[-1]):
        row = blocks[..., i, :i + 1]
        row += np.conj(blocks[..., :i + 1, i])
        row *= 0.5
    return float(np.linalg.eigvalsh(blocks).min())


def check_temporal_axioms(D: DiracOperator, seed=0):
    """Run the axiom residual suite on D in stencil form (`sparse_matrix`).

    Up to ORACLE_LIMIT dense dimensions that D is also compared with
    the probe-built `dense_matrix`.  The smallest eigenvalue of <D>^2 is
    `_min_eigenvalue` of the `_momentum_blocks` over D's waved axes of the
    same stencil <D>^2 whose hermiticity is checked, built and
    diagonalised in chunks of momenta (`_momentum_chunks`).
    `elliptic_size_error` holds those blocks to their limits; a gamma
    representation that fails `check_clifford` is refused.

    Returns (checks, payload), the payload every measured value and note.
    """
    lat = D.lattice
    s = D.spinor_dim
    periodic = lat.boundary == "periodic"
    _require(elliptic_size_error(D))
    require_valid(D.rep)
    # each operator is deleted after its last read: <D>^2 is formed beside D,
    # K and K D alone.  Every per-site array is on the stored sites.
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
        dense = D.dense_matrix()
        dense -= d.toarray()
        assembly = max_abs(dense)
        del dense
    w = D.measure_weights()
    k = _site_blocks(lat, K)
    kd = k @ d
    skew = kd.adjoint_residual(kd, weights=w)

    # Krein equivalence both ways with J = i gamma^0 (normalized symmetry):
    # J D skew-Hermitian, and D^dagger = -J D J.
    j = _site_blocks(lat, np.broadcast_to(1j * D.rep.matrices[0], K.shape))
    jd = j @ d
    krein_skew = jd.adjoint_residual(jd, weights=w)
    krein_equiv = d.adjoint_residual(jd @ j, weights=w)
    del j, jd, w

    rng = default_rng(seed)
    commute = 0.0
    for _ in range(COMMUTE_SAMPLES):
        # one draw's fields at a time: each is freed before the next is drawn
        f = rng.standard_normal(lat.shape)
        psi = random_spinor(lat, s, rng)
        lhs = np.einsum("...ab,...b->...a", K, f[..., None] * psi.values)
        lhs -= f[..., None] * np.einsum("...ab,...b->...a", K, psi.values)
        commute = np.maximum(commute, np.abs(lhs).max())
        del f, psi, lhs
    commute = float(commute)
    del K, ksq

    m = elliptic_square(d, k, kd)
    del d, k, kd
    ell_herm = m.adjoint_residual(m, np.subtract)
    ell_min = min(_min_eigenvalue(_momentum_blocks(m, D.waved, chunk))
                  for chunk in _momentum_chunks(m, D.waved))

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

    checks = [
        Check("temporal commutator hermitian", herm, "<=", HERMITICITY_TOL),
        Check("[D,T]^2 scalar", dev, "<=", U_SQUARE_TOL),
        Check("[D,T]^2 positive", float(c.min()), ">", 0.0),
        Check("u_ax * u_metric = 1", recip, "<=", RECIPROCAL_TOL),
        Check("[D,T] D skew-adjoint", skew, "<=", SKEW_TOL),
        Check("Krein skewness (both forms)", np.max([krein_skew, krein_equiv]),
              "<=", KREIN_TOL),
        Check("[D,T] commutes with functions", commute, "<=", COMMUTE_TOL),
        Check("<D>^2 hermitian", ell_herm, "<=", ELLIPTIC_HERM_TOL),
        Check("<D>^2 non-negative", ell_min, ">=", ELLIPTIC_EIG_FLOOR),
    ]
    if assembly is not None:
        checks.append(Check("sparse D equals probe-built D", assembly, "<=",
                            ASSEMBLY_TOL))
    return checks, {
        "hermiticity_residual": herm,
        "u_square_deviation": dev,     # max per-site distance of [D,T]^2 from c 1
        "u_ax_min": float(c.min()),
        "u_ax_max": float(c.max()),
        "u_metric_min": float(D.u.min()),
        "u_metric_max": float(D.u.max()),
        "reciprocal_residual": recip,  # max |u_ax * u_metric - 1|
        "skew_residual": skew,
        "krein_skew_residual": krein_skew,     # || (J D)^+ + J D ||
        "krein_equiv_residual": krein_equiv,   # || D^+ + J D J ||
        "commute_residual": commute,
        "elliptic_hermiticity": ell_herm,
        "elliptic_min_eigenvalue": ell_min,
        "assembly_residual": assembly,  # max |sparse D - probe-built D|, or None
        "adjoints_exact": periodic and uvar <= U_VARIATION_TOL,
        "notes": notes,
    }


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
