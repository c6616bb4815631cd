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

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expressions

BOUNDARIES = ("periodic", "clamped")
SITE_LIMIT = 65536       # lattice sites any command may allocate fields on


def slices(count, step):
    """Consecutive slices of range(count), `step` items each (at least
    one); the last ends at count.  Every streamed loop is cut by these."""
    step = max(1, step)
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


@dataclass(frozen=True)
class Lattice:
    extents: tuple          # ((lo, hi), ...) per axis
    points: tuple           # sites per axis
    boundary: str = "periodic"
    axis_names: tuple = None

    def __post_init__(self):
        if self.boundary not in BOUNDARIES:
            raise ValueError("boundary must be %s, got %r"
                             % (" or ".join(map(repr, BOUNDARIES)), self.boundary))
        if len(self.extents) != len(self.points):
            raise ValueError("extents/points length mismatch")
        try:
            points = tuple(map(operator.index, self.points))
        except TypeError:
            raise ValueError("point counts must be integers, got %r"
                             % (self.points,)) from None
        object.__setattr__(self, "points", points)
        for (lo, hi), n in zip(self.extents, self.points):
            if not hi > lo:
                raise ValueError("empty extent (%r, %r)" % (lo, hi))
            if n < (2 if self.boundary == "periodic" else 3):
                raise ValueError("too few points per axis: %d" % n)
        if self.site_count > SITE_LIMIT:
            raise ValueError("lattice too large: %s sites > %d"
                             % (" x ".join(map(str, self.points)), SITE_LIMIT))
        if self.axis_names is None:
            object.__setattr__(self, "axis_names",
                               expressions.AXIS_NAMES[: self.dimension])
        if not len(self.axis_names) == len(set(self.axis_names)) == self.dimension:
            raise ValueError("axis names %r are not %d distinct names"
                             % (self.axis_names, self.dimension))
        object.__setattr__(self, "extents", tuple((float(a), float(b)) for a, b in self.extents))

    @property
    def dimension(self):
        return len(self.points)

    @property
    def shape(self):
        return self.points

    @property
    def site_count(self):
        return math.prod(self.points)

    def spacing(self, axis):
        lo, hi = self.extents[axis]
        n = self.points[axis]
        return (hi - lo) / (n if self.boundary == "periodic" else n - 1)

    @property
    def spacings(self):
        return tuple(self.spacing(a) for a in range(self.dimension))

    @cached_property
    def _coordinates(self):
        """Per axis: its coordinates, broadcast to lattice shape.

        Computed once per lattice; every array is read-only, so callers
        share them.
        """
        out = []
        for axis, ((lo, hi), n) in enumerate(zip(self.extents, self.points)):
            if self.boundary == "periodic":
                c = lo + self.spacing(axis) * np.arange(n)
            else:
                c = np.linspace(lo, hi, n)
            shape = [1] * self.dimension
            shape[axis] = n
            out.append(np.broadcast_to(c.reshape(shape), self.shape))
        return tuple(out)

    def coordinate_array(self, axis):
        """Coordinate of every site along `axis`, broadcast to lattice shape."""
        return self._coordinates[axis]

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
        ast, fn = expressions.compile_expression(ast_or_text)
        used = expressions.variables_used(ast)
        unknown = used - set(lattice.axis_names)
        if unknown:
            raise expressions.ExpressionError(
                "variables %s not available on a %d-d lattice with axes %s"
                % (sorted(unknown), lattice.dimension, list(lattice.axis_names)))
        return cls.from_callable(lattice, fn)

    @classmethod
    def from_callable(cls, lattice, fn):
        values = fn(**lattice.environment())
        return cls(lattice, np.broadcast_to(values, lattice.shape).astype(float))


@dataclass
class SpinorField:
    lattice: Lattice
    values: np.ndarray   # lattice.shape + (..., s): one field, or a stack

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        d = self.lattice.dimension
        if self.values.ndim <= d or self.values.shape[:d] != self.lattice.shape:
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
