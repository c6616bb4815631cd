import numpy as np
import pytest

from lorentzlab.expressions import ExpressionError
from lorentzlab.lattice import (Lattice, ScalarField, SpinorField, gradient,
                                inner_product, integrate, norm)


def test_periodic_volume_exact():
    lat = Lattice(((0.0, 16.0), (0.0, 8.0)), (16, 8))
    assert lat.site_weights().sum() == 16.0 * 8.0
    assert lat.spacing(0) == 1.0 and lat.spacing(1) == 1.0


def test_clamped_volume_exact():
    lat = Lattice(((0.0, 16.0),), (5,), boundary="clamped")
    # trapezoid weights h/2, h, h, h, h/2 with h = 4
    assert np.array_equal(lat.axis_weights(0), [2.0, 4.0, 4.0, 4.0, 2.0])
    assert lat.site_weights().sum() == 16.0


def test_axis_coordinates():
    lat = Lattice(((0.0, 4.0),), (4,))
    assert np.array_equal(lat.axis_coordinates(0), [0.0, 1.0, 2.0, 3.0])
    cl = Lattice(((0.0, 4.0),), (5,), boundary="clamped")
    assert np.array_equal(cl.axis_coordinates(0), [0.0, 1.0, 2.0, 3.0, 4.0])


def test_validation_errors():
    with pytest.raises(ValueError):
        Lattice(((1.0, 1.0),), (8,))
    with pytest.raises(ValueError):
        Lattice(((0.0, 1.0),), (2,), boundary="clamped")
    with pytest.raises(ValueError):
        Lattice(((0.0, 1.0),), (8,), boundary="open")
    with pytest.raises(ValueError):
        Lattice(((0.0, 1.0), (0.0, 1.0)), (8,))


def test_gaussian_integral():
    lat = Lattice(((-8.0, 8.0), (-8.0, 8.0)), (64, 64), axis_names=("x", "y"))
    f = ScalarField.from_expression(lat, "exp(-(x*x + y*y))")
    assert abs(integrate(f) - np.pi) <= 1e-12


def test_odd_function_integrates_to_zero():
    lat = Lattice(((-4.0, 4.0),), (33,), boundary="clamped")
    f = ScalarField.from_expression(lat, "t^3")
    assert abs(integrate(f)) <= 1e-12


def test_expression_axis_names_follow_lattice():
    lat = Lattice(((-4.0, 4.0), (-4.0, 4.0)), (8, 8))  # axes t, x
    with pytest.raises(ExpressionError) as err:
        ScalarField.from_expression(lat, "t + y")
    assert "y" in str(err.value)


def test_gradient_quadratic_clamped_exact():
    lat = Lattice(((-4.0, 4.0),), (17,), boundary="clamped")
    f = ScalarField.from_expression(lat, "t^2")
    df = gradient(f, 0)
    want = 2.0 * lat.axis_coordinates(0)
    assert np.max(np.abs(df.values - want)) <= 1e-12


def test_gradient_plane_wave_symbol():
    # periodic central difference multiplies e^{ikx} by i sin(kh)/h
    lat = Lattice(((0.0, 16.0),), (16,))
    k = 2.0 * np.pi * 3.0 / 16.0
    x = lat.axis_coordinates(0)
    psi = SpinorField(lat, np.exp(1j * k * x)[:, None])
    dpsi = gradient(psi, 0)
    want = 1j * np.sin(k * 1.0) / 1.0 * psi.values
    assert np.max(np.abs(dpsi.values - want)) <= 1e-13


def test_summation_by_parts_periodic():
    lat = Lattice(((0.0, 8.0),), (32,))
    rng = np.random.RandomState(0)
    f = ScalarField(lat, rng.randn(32))
    g = ScalarField(lat, rng.randn(32))
    lhs = integrate(ScalarField(lat, f.values * gradient(g, 0).values))
    rhs = integrate(ScalarField(lat, gradient(f, 0).values * g.values))
    assert abs(lhs + rhs) <= 1e-13


def test_inner_product_weighted():
    lat = Lattice(((0.0, 4.0),), (8,))
    ones = SpinorField(lat, np.ones((8, 2), dtype=complex))
    assert inner_product(ones, ones) == pytest.approx(8.0, abs=0)
    w = 2.0 * np.ones(8)
    assert inner_product(ones, ones, weight=w) == pytest.approx(16.0, abs=0)
    assert norm(ones) == pytest.approx(np.sqrt(8.0), rel=1e-15)


def test_field_shape_validation():
    lat = Lattice(((0.0, 4.0), (0.0, 4.0)), (4, 4))
    with pytest.raises(ValueError):
        ScalarField(lat, np.zeros((4, 5)))
    with pytest.raises(ValueError):
        SpinorField(lat, np.zeros((4, 4)))   # missing spinor axis
