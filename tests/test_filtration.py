import numpy as np
import pytest

from lorentzlab.filtration import (EvaluationState, FilteredElement,
                                   ToyAlgebra, ToyState,
                                   central_multiplicativity_check,
                                   extend_state, operator_norm_grading_check,
                                   submultiplicativity_residual,
                                   weighted_norm, well_definedness_check)
from lorentzlab.lattice import Lattice

T_NORM_REF = 0.9922778767136676       # 8 / sqrt(65) on the (-8, 8) lattice


def time_lattice():
    return Lattice(((-8.0, 8.0),), (65,), boundary="clamped")


def plane_lattice():
    return Lattice(((-8.0, 8.0), (-2.0, 2.0)), (65, 5), boundary="clamped")


def test_time_element_negative_one_norm():
    t_elem = FilteredElement.time_element()
    got = weighted_norm(t_elem, -1, time_lattice())
    assert got == pytest.approx(8.0 / np.sqrt(65.0), abs=1e-15)
    assert got == pytest.approx(T_NORM_REF, abs=1e-15)


def test_time_element_samples_to_t():
    lat = time_lattice()
    vals = FilteredElement.time_element().sample(lat).values
    assert np.max(np.abs(vals - lat.coordinate_array(0))) <= 1e-13


def test_degrees_add_on_multiply():
    t_elem = FilteredElement.time_element()
    sq = t_elem.multiply(t_elem)
    assert sq.degree == 2
    lat = time_lattice()
    t = lat.coordinate_array(0)
    assert np.max(np.abs(sq.sample(lat).values - t * t)) <= 1e-11


def test_to_degree_preserves_function():
    lat = plane_lattice()
    base = FilteredElement.from_expression("sin(t) + 0.2*cos(x)", 1)
    shifted = base.to_degree(3)
    assert shifted.degree == 3
    dev = np.abs(base.sample(lat).values - shifted.sample(lat).values)
    assert np.max(dev) <= 1e-12
    p = (0.7, -1.1)
    assert abs(base.value_at(p) - shifted.value_at(p)) <= 1e-12


def test_weighted_norm_values():
    lat = time_lattice()
    one = FilteredElement.from_expression("1", 0)
    assert weighted_norm(one, 0, lat) == 1.0
    assert weighted_norm(one, 2, lat) == 65.0     # max of 1 + t^2 at t = 8


def test_submultiplicativity_random_pairs():
    lat = plane_lattice()
    rng = np.random.default_rng(9)
    for _ in range(20):
        da, db = rng.integers(0, 3, size=2)
        ca = tuple(float(v) for v in rng.uniform(-2, 2, size=3))
        cb = tuple(float(v) for v in rng.uniform(-2, 2, size=3))
        a = FilteredElement.from_expression(
            "%r*sin(t) + %r*cos(x) + %r" % ca, int(da))
        b = FilteredElement.from_expression(
            "%r*cos(t) + %r*sin(x) + %r" % cb, int(db))
        assert submultiplicativity_residual(a, b, lat) <= 1e-12


def test_operator_norm_grading():
    lat = time_lattice()
    rep = operator_norm_grading_check(FilteredElement.time_element(), lat,
                                      seed=1)
    assert rep.bound_ok
    assert rep.approach_ok
    assert rep.spread <= 1e-10
    assert rep.weighted_norm == pytest.approx(T_NORM_REF, abs=1e-15)
    assert set(rep.estimates) == {-2, -1, 0, 1, 2}


def test_extension_literal_value():
    elem = FilteredElement.from_expression("sin(t)*cos(x)", 2)
    got = extend_state((0.5, 0.3), elem)
    want = 1.25 * np.sin(0.5) * np.cos(0.3)
    assert got == pytest.approx(want, rel=1e-14)
    assert got.imag == 0.0


def test_evaluation_state_weight():
    st = EvaluationState((2.0, 0.0))
    assert st.weight_value() == pytest.approx(1.0 / np.sqrt(5.0), rel=1e-15)


def test_extension_rejects_degenerate_state():
    with pytest.raises(ValueError, match="extension"):
        extend_state((np.inf, 0.0), FilteredElement.time_element())


def test_well_definedness_across_degrees():
    lat = plane_lattice()
    base = FilteredElement.from_expression("sin(t) + 0.5*cos(x)", 1)
    other = base.to_degree(3)
    rng = np.random.default_rng(21)
    states = [tuple(rng.uniform(-3, 3, size=2)) for _ in range(20)]
    resid = well_definedness_check(base, other, lat, states)
    assert resid <= 1e-12


def test_well_definedness_rejects_mismatch():
    lat = plane_lattice()
    a = FilteredElement.from_expression("sin(t)", 1)
    b = FilteredElement.from_expression("cos(t)", 1)
    with pytest.raises(ValueError, match="differ as functions"):
        well_definedness_check(a, b, lat, [(0.0, 0.0)])


# ------------------------------------------------------------- toy algebra

def toy():
    return ToyAlgebra(tuple(np.linspace(-3.0, 3.0, 8)))


def test_central_multiplicativity():
    rep = central_multiplicativity_check(toy(), seed=0)
    assert rep.trials == 500
    assert rep.max_central_residual <= 1e-13
    assert rep.counterexample_residual == pytest.approx(0.5, abs=1e-12)
    assert rep.counterexample["chi_ab"] == 0.0
    assert rep.counterexample["chi_a_chi_b"] == pytest.approx(0.5, abs=1e-12)


def test_toy_state_is_normalized():
    alg = toy()
    ident = alg.central_element(np.ones(alg.sites))
    st = ToyState(3, (1.0, 0.0))
    assert st(ident) == 1.0


def test_central_element_is_a_scalar_per_site():
    alg = toy()
    c = np.arange(alg.sites) - 2.5j
    a = alg.central_element(c)
    assert a.shape == (alg.sites, 2, 2) and a.dtype == complex
    for k in range(alg.sites):
        assert np.array_equal(a[k], c[k] * np.eye(2))
    assert np.array_equal(alg.time_element(),
                          alg.central_element(np.array(alg.t_values)))
    with pytest.raises(ValueError, match="per site"):
        alg.central_element(np.ones(alg.sites - 1))
