"""Uniform rectangular lattices, fields, difference stencils and quadrature.

Axis 0 is time.  Two boundary modes:

* "periodic": N sites per axis at min + k*h with h = (max-min)/N; the right
  endpoint is identified with the left one.  Riemann weights (h per site), so
  constants integrate to the exact box volume and central differences are
  exactly antisymmetric (summation by parts holds to rounding).
* "clamped": N sites including both endpoints, h = (max-min)/(N-1),
  trapezoidal weights, second-order one-sided stencils at the edges.

Site ordering for flattening is row major (C order).
"""

from dataclasses import dataclass

import numpy as np

AXIS_NAMES = ("t", "x", "y", "z")


@dataclass(frozen=True)
class Lattice:
    extents: tuple          # ((lo, hi), ...) per axis
    points: tuple           # sites per axis
    boundary: str = "periodic"
    axis_names: tuple = None

    def __post_init__(self):
        if self.boundary not in ("periodic", "clamped"):
            raise ValueError("boundary must be 'periodic' or 'clamped', got %r"
                             % (self.boundary,))
        if len(self.extents) != len(self.points):
            raise ValueError("extents/points length mismatch")
        for (lo, hi), n in zip(self.extents, self.points):
            if not hi > lo:
                raise ValueError("empty extent (%r, %r)" % (lo, hi))
            if n < (2 if self.boundary == "periodic" else 3):
                raise ValueError("too few points per axis: %d" % n)
        if self.axis_names is None:
            object.__setattr__(self, "axis_names", AXIS_NAMES[: self.dimension])
        object.__setattr__(self, "extents", tuple((float(a), float(b)) for a, b in self.extents))
        object.__setattr__(self, "points", tuple(int(n) for n in self.points))

    @property
    def dimension(self):
        return len(self.points)

    @property
    def shape(self):
        return self.points

    @property
    def site_count(self):
        return int(np.prod(self.points))

    def spacing(self, axis):
        lo, hi = self.extents[axis]
        n = self.points[axis]
        return (hi - lo) / (n if self.boundary == "periodic" else n - 1)

    @property
    def spacings(self):
        return tuple(self.spacing(a) for a in range(self.dimension))

    def axis_coordinates(self, axis):
        lo, hi = self.extents[axis]
        n = self.points[axis]
        if self.boundary == "periodic":
            return lo + self.spacing(axis) * np.arange(n)
        return np.linspace(lo, hi, n)

    def coordinate_array(self, axis):
        """Coordinate of every site along `axis`, broadcast to lattice shape."""
        c = self.axis_coordinates(axis)
        shape = [1] * self.dimension
        shape[axis] = self.points[axis]
        return np.broadcast_to(c.reshape(shape), self.shape)

    def axis_weights(self, axis):
        h = self.spacing(axis)
        n = self.points[axis]
        if self.boundary == "periodic":
            return np.full(n, h)
        w = np.full(n, h)
        w[0] = w[-1] = h / 2.0
        return w

    def site_weights(self):
        """Quadrature weight of every site (outer product of axis weights)."""
        w = self.axis_weights(0)
        out = w
        for axis in range(1, self.dimension):
            out = np.multiply.outer(out, self.axis_weights(axis))
        return out

    def environment(self):
        """Coordinate arrays keyed by axis name, for expression evaluation."""
        return {name: self.coordinate_array(axis)
                for axis, name in enumerate(self.axis_names)}


@dataclass
class ScalarField:
    lattice: Lattice
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != self.lattice.shape:
            raise ValueError("field shape %s does not match lattice %s"
                             % (self.values.shape, self.lattice.shape))

    @classmethod
    def from_expression(cls, lattice, ast_or_text):
        from . import expressions
        ast, fn = expressions.compile_expression(ast_or_text)
        used = expressions.variables_used(ast)
        unknown = used - set(lattice.axis_names)
        if unknown:
            raise expressions.ExpressionError(
                "variables %s not available on a %d-d lattice with axes %s"
                % (sorted(unknown), lattice.dimension, list(lattice.axis_names)))
        values = fn(**lattice.environment())
        return cls(lattice, np.broadcast_to(values, lattice.shape).astype(float).copy())

    @classmethod
    def from_callable(cls, lattice, fn):
        return cls(lattice, np.asarray(fn(**lattice.environment())))


@dataclass
class SpinorField:
    lattice: Lattice
    values: np.ndarray   # shape lattice.shape + (spinor_dim,)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape[:-1] != self.lattice.shape:
            raise ValueError("spinor field shape %s does not match lattice %s"
                             % (self.values.shape, self.lattice.shape))


def _central_diff(values, axis, h, boundary):
    if boundary == "periodic":
        return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * h)
    # clamped: second-order central interior, second-order one-sided edges
    return np.gradient(values, h, axis=axis, edge_order=2)


def gradient(fld, axis):
    """Second-order difference along `axis` (works for Scalar- and SpinorField)."""
    lat = fld.lattice
    if axis < 0 or axis >= lat.dimension:
        raise ValueError("axis %d out of range for %d-d lattice" % (axis, lat.dimension))
    h = lat.spacing(axis)
    out = _central_diff(fld.values, axis, h, lat.boundary)
    return type(fld)(lat, out)


def integrate(fld):
    """Quadrature of a scalar field over the box."""
    return complex(np.sum(fld.lattice.site_weights() * fld.values))


def inner_product(psi, phi, weight=None):
    """<psi, phi> = sum over sites (and spinor components) of conj(psi) phi w.

    `weight` is an optional per-site real array (e.g. a metric measure or a
    (1+t^2)^n factor) multiplying the quadrature weights.
    """
    if psi.lattice is not phi.lattice and psi.lattice != phi.lattice:
        raise ValueError("fields live on different lattices")
    w = psi.lattice.site_weights()
    if weight is not None:
        w = w * weight
    a, b = psi.values, phi.values
    if isinstance(psi, SpinorField):
        return complex(np.sum(np.conj(a) * b * w[..., None]))
    return complex(np.sum(np.conj(a) * b * w))


def norm(psi, weight=None):
    return float(np.sqrt(inner_product(psi, psi, weight).real))
