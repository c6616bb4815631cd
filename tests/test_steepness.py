import dataclasses

import numpy as np
import pytest

from lorentzlab import steepness
from lorentzlab.clifford import build_gamma
from lorentzlab.dirac import flat_operator
from lorentzlab.lattice import ScalarField
from lorentzlab.steepness import (EIG_TOL, SteepnessReport, equivalence_scan,
                                  is_steep_matrix, matrix_margins,
                                  scalar_margins)
from oracles import conjugated, is_steep_scalar


def matrix_margin(grad, rep=None, u=1.0):
    """The shared margin function at one constant gradient."""
    rep = build_gamma(len(grad)) if rep is None else rep
    margin, _ = matrix_margins([float(g) for g in grad], u, rep)
    return float(margin)


def scalar_margin(grad, u=1.0):
    margin, oriented = scalar_margins([float(g) for g in grad], u)
    return float(margin), bool(oriented)


def clamped_op(dim=2, n=12, u=None):
    box = tuple((-4.0, 4.0) for _ in range(dim))
    return flat_operator(dim, n, box=box, boundary="clamped", u=u)


def test_time_function_is_marginally_steep():
    op = clamped_op()
    f = ScalarField.from_expression(op.lattice, "t")
    rep = is_steep_matrix(f, op)
    assert rep.steep
    assert abs(rep.worst_margin) <= 1e-12
    assert rep.hermiticity_residual <= 1e-13
    srep = is_steep_scalar(f, op)
    assert srep.steep
    assert abs(srep.worst_margin) <= 1e-12


def test_half_slope_not_steep():
    op = clamped_op()
    f = ScalarField.from_expression(op.lattice, "0.5*t")
    rep = is_steep_matrix(f, op)
    assert not rep.steep
    assert rep.sites_failed == op.lattice.site_count
    assert not is_steep_scalar(f, op).steep


def test_double_slope_margin_one():
    assert matrix_margin((2.0, 0.0)) == pytest.approx(1.0, abs=1e-12)
    margin, oriented = scalar_margin((2.0, 0.0))
    assert oriented and margin == pytest.approx(3.0, abs=1e-12)


def test_nan_margins_fail_both_routes():
    op = flat_operator(2, 16, box=((-3.0, 3.0), (-3.0, 3.0)), boundary="clamped")
    f = ScalarField(op.lattice, np.full(op.lattice.shape, np.nan))
    for rep in (is_steep_matrix(f, op), is_steep_scalar(f, op)):
        assert not rep.steep
        assert rep.sites_failed == op.lattice.site_count


def test_wrong_orientation_rejected():
    op = clamped_op()
    f = ScalarField.from_expression(op.lattice, "0 - 2*t")
    assert not is_steep_matrix(f, op).steep
    srep = is_steep_scalar(f, op)
    assert not srep.steep
    assert not srep.orientation_ok


def test_boundary_gradient_exactly_on_cone():
    # a = sqrt(1 + b^2) sits exactly on the margin
    b = 1.5
    a = np.sqrt(1.0 + b * b)
    assert abs(matrix_margin((a, b))) <= 1e-12
    margin, oriented = scalar_margin((a, b))
    assert oriented and abs(margin) <= 1e-12


def test_conformal_factor_raises_threshold():
    # with u = 4 the time slope must reach 2 before the cone closes
    m1 = matrix_margin((1.0, 0.0), u=4.0)
    assert m1 < 0
    m2 = matrix_margin((2.0, 0.0), u=4.0)
    assert abs(m2) <= 1e-12
    s2, oriented = scalar_margin((2.0, 0.0), u=4.0)
    assert oriented and abs(s2) <= 1e-12


def test_margin_independent_of_gamma_basis():
    rep = build_gamma(4)
    rng = np.random.RandomState(8)
    m = rng.randn(4, 4) + 1j * rng.randn(4, 4)
    q, _ = np.linalg.qr(m)
    rot = conjugated(rep, q)
    grad = (1.7, 0.3, -0.4, 0.2)
    m0 = matrix_margin(grad, rep)
    m1 = matrix_margin(grad, rot)
    assert m0 == pytest.approx(m1, abs=1e-10)


def test_lattice_margins_match_constant_route():
    op = clamped_op()
    # failing affine candidate: a constant gradient, so every site violates
    # with the margin of the constant route
    f = ScalarField.from_expression(op.lattice, "0.8*t - 0.6*x")
    rep = is_steep_matrix(f, op)
    want = matrix_margin((0.8, -0.6))
    assert want < 0
    assert rep.worst_margin == pytest.approx(want, abs=1e-11)
    assert rep.sites_failed == op.lattice.site_count
    margins, _ = matrix_margins(steepness._stencil_gradients(f, op), op.u, op.rep)
    assert np.ptp(margins) <= 1e-11     # the same margin at every site


def test_scalar_margin_position_dependent():
    op = clamped_op()
    f = ScalarField.from_expression(op.lattice, "t + 0.05*t^2")
    mrep = is_steep_matrix(f, op)
    srep = is_steep_scalar(f, op)
    assert mrep.steep == srep.steep


@pytest.mark.parametrize("expr,steep,matrix_worst,scalar_worst", [
    ("2*t", True, 0.0, 0.0),
    ("1.9*t", False, -0.025, -0.0975),
    ("0.6*t", False, -0.35, -0.91)])
def test_scalar_route_takes_the_lapse_of_the_operator(expr, steep, matrix_worst,
                                                      scalar_worst):
    # with u = 4 steepness needs (d_t f)^2 / u >= 1, so d_t f >= 2
    op = clamped_op(u="4")
    f = ScalarField.from_expression(op.lattice, expr)
    mrep = is_steep_matrix(f, op)
    srep = is_steep_scalar(f, op)
    assert mrep.steep == srep.steep == steep
    assert mrep.worst_margin == pytest.approx(matrix_worst, abs=1e-12)
    assert srep.worst_margin == pytest.approx(scalar_worst, abs=1e-12)


@pytest.mark.parametrize("dim", [2, 4])
def test_equivalence_scan(dim):
    checks, scan = equivalence_scan(1000, seed=7, dimension=dim)
    assert all(c.passed for c in checks)
    assert scan["samples"] == 1000
    assert scan["agreements"] == 1000
    assert scan["disagreements"] == []
    assert 0 < scan["steep_count"] < 1000


def test_scan_and_certificate_share_the_margin_function(monkeypatch):
    # both routes to a matrix margin run steepness.matrix_margins; the scan
    # passes every draw in one call
    shapes = []
    margins = steepness.matrix_margins

    def spy(grads, *args, **kwargs):
        got = margins(grads, *args, **kwargs)
        shapes.append(got[0].shape)
        return got
    monkeypatch.setattr(steepness, "matrix_margins", spy)
    op = clamped_op()
    assert is_steep_matrix(ScalarField.from_expression(op.lattice, "t"), op).steep
    assert equivalence_scan(50, seed=3)[1]["agreements"] == 50
    assert shapes == [op.lattice.shape, (50,)]


def test_equivalence_scan_needs_even_dimension():
    with pytest.raises(ValueError):
        equivalence_scan(10, seed=0, dimension=3)


def test_lattice_mismatch_rejected():
    op = clamped_op()
    other = clamped_op(n=10)
    f = ScalarField.from_expression(other.lattice, "t")
    with pytest.raises(ValueError):
        is_steep_matrix(f, op)
    with pytest.raises(ValueError):
        is_steep_scalar(f, op)


def test_report_serialization():
    op = clamped_op()
    f = ScalarField.from_expression(op.lattice, "t")
    rep = is_steep_matrix(f, op)
    assert rep.steep is True
    assert [fld.name for fld in dataclasses.fields(rep)] == [
        "steep", "sites_failed", "worst_margin", "hermiticity_residual"]
    assert rep.sites_failed == 0
    assert isinstance(rep.worst_margin, float)


@pytest.mark.parametrize("boundary,u", [
    ("periodic", "2"), ("periodic", "2+sin(t)"), ("clamped", "2+sin(t)")],
    ids=["once", "per-slice", "every-site"])
def test_certificate_broadcasts_the_stored_lapse(boundary, u):
    # is_steep_matrix reads D.u on the stored sites of D; matrix_margins fed
    # the lattice-shaped lapse gives the same report bit for bit
    op = flat_operator(2, (6, 5), boundary=boundary, u=u)
    f = ScalarField.from_expression(op.lattice, "3*t - 0.3*t^2 + 0.3*sin(x)")
    full = ScalarField.from_expression(op.lattice, u).values
    margins, herm = matrix_margins(steepness._stencil_gradients(f, op), full,
                                   op.rep)
    failed = int(np.count_nonzero(~(margins >= -EIG_TOL)))
    want = SteepnessReport(failed == 0, failed, float(margins.min()), herm)
    got = is_steep_matrix(f, op)
    assert 0 < got.sites_failed < op.lattice.site_count    # steep and not
    assert repr(got) == repr(want)
