import inspect

import numpy as np
import pytest

from lorentzlab import filtration
from lorentzlab.expressions import compile_expression
from lorentzlab.filtration import (GRADING_GRADES, GRADING_SPINOR_DIM,
                                   GRADING_TRIALS, TOY_SITES, FilteredElement,
                                   central_multiplicativity_check,
                                   extend_state, operator_norm_grading_check,
                                   run_filtration_suite,
                                   submultiplicativity_residual,
                                   weighted_norm, well_definedness_check)
from lorentzlab.lattice import Lattice, SpinorField
from oracles import inner_product

T_NORM_REF = 0.9922778767136676       # 8 / sqrt(65) on the (-8, 8) lattice


def element(text, degree):
    """The filtered element (1+T^2)^{degree/2} * text, labelled by text."""
    return FilteredElement(degree, compile_expression(text)[1], text)


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
    base = element("sin(t) + 0.2*cos(x)", 1)
    shifted = base.to_degree(3)
    assert shifted.degree == 3
    dev = np.abs(base.sample(lat).values - shifted.sample(lat).values)
    assert np.max(dev) <= 1e-12
    p = (0.7, -1.1)
    assert abs(extend_state(p, base) - extend_state(p, shifted)) <= 1e-12


def test_weighted_norm_values():
    lat = time_lattice()
    one = element("1", 0)
    assert weighted_norm(one, 0, lat) == 1.0
    assert weighted_norm(one, 2, lat) == 65.0     # max of 1 + t^2 at t = 8


def test_submultiplicativity_random_pairs():
    lat = plane_lattice()
    rng = np.random.default_rng(9)
    for _ in range(20):
        da, db = rng.integers(0, 3, size=2)
        ca = tuple(float(v) for v in rng.uniform(-2, 2, size=3))
        cb = tuple(float(v) for v in rng.uniform(-2, 2, size=3))
        a = element("%r*sin(t) + %r*cos(x) + %r" % ca, int(da))
        b = element("%r*cos(t) + %r*sin(x) + %r" % cb, int(db))
        assert submultiplicativity_residual(a, b, lat) <= 1e-12


def test_operator_norm_grading():
    lat = time_lattice()
    rep = operator_norm_grading_check(FilteredElement.time_element(), lat,
                                      seed=1)
    estimates = np.array(list(rep["estimates"].values()))
    assert np.all(estimates <= rep["weighted_norm"] * (1.0 + 1e-12))
    assert estimates.min() >= 0.95 * rep["weighted_norm"]
    assert rep["spread"] <= 1e-10
    assert rep["weighted_norm"] == pytest.approx(T_NORM_REF, abs=1e-15)
    assert set(rep["estimates"]) == {-2, -1, 0, 1, 2}


def test_extension_literal_value():
    elem = element("sin(t)*cos(x)", 2)
    got = extend_state((0.5, 0.3), elem)
    want = 1.25 * np.sin(0.5) * np.cos(0.3)
    assert got == pytest.approx(want, rel=1e-14)
    assert got.imag == 0.0


def test_evaluation_state_weight():
    # chi((1+T^2)^{-1/2}) is the extension of the degree -1 element 1
    weight = element("1", -1)
    assert extend_state((2.0, 0.0), weight) == pytest.approx(1.0 / np.sqrt(5.0),
                                                             rel=1e-15)


def test_extension_rejects_degenerate_state():
    with pytest.raises(ValueError, match="extension"):
        extend_state((np.inf, 0.0), FilteredElement.time_element())


def test_extension_of_a_stack_is_the_extension_of_each_point():
    elem = element("sin(t)*cos(x) + 0.5", 2)
    points = np.random.default_rng(3).uniform(-5.0, 5.0, size=(2, 3, 2))
    got = extend_state(points, elem)
    assert got.shape == (2, 3)
    for point, value in zip(points.reshape(-1, 2), got.reshape(-1)):
        t, x = point
        want = (1.0 + t * t) * (np.sin(t) * np.cos(x) + 0.5)
        assert value == pytest.approx(want, rel=1e-14)
        assert extend_state(tuple(point), elem) == pytest.approx(value, rel=1e-14)


def test_extension_rejects_a_stack_holding_a_degenerate_state():
    points = np.array([[0.0, 0.0], [1.0, 2.0], [-np.inf, 0.5]])
    with pytest.raises(ValueError, match="extension"):
        extend_state(points, FilteredElement.time_element())


def test_well_definedness_extends_each_decomposition_once(monkeypatch):
    calls = []

    def spy(points, elem):
        calls.append(np.shape(points))
        return extend_state(points, elem)
    monkeypatch.setattr(filtration, "extend_state", spy)
    base = element("sin(t) + 0.5*cos(x)", 1)
    states = np.random.default_rng(4).uniform(-3.0, 3.0, size=(6, 2))
    well_definedness_check(base, base.to_degree(2), plane_lattice(), states)
    assert calls == [(6, 2), (6, 2)]


def test_well_definedness_across_degrees():
    lat = plane_lattice()
    base = element("sin(t) + 0.5*cos(x)", 1)
    other = base.to_degree(3)
    rng = np.random.default_rng(21)
    states = [tuple(rng.uniform(-3, 3, size=2)) for _ in range(20)]
    resid = well_definedness_check(base, other, lat, states)
    assert resid <= 1e-12


def test_well_definedness_rejects_mismatch():
    lat = plane_lattice()
    a = element("sin(t)", 1)
    b = element("cos(t)", 1)
    with pytest.raises(ValueError, match="differ as functions"):
        well_definedness_check(a, b, lat, [(0.0, 0.0)])


# ------------------------------------------------------------- toy algebra

def central_element(fiber_values):
    """c_k times the 2x2 identity at site k; shape (TOY_SITES, 2, 2)."""
    c = np.asarray(fiber_values)
    if c.shape != (TOY_SITES,):
        raise ValueError("need one fiber value per site (%d), got shape %s"
                         % (TOY_SITES, c.shape))
    return np.asarray(c[:, None, None] * np.eye(2), dtype=complex)


def state_value(site, vector, element):
    """The pure state of C^K (x) M2 at a site, with a unit vector v of C^2:
    conj(v) a v of the element's block a there."""
    v = np.asarray(vector, dtype=complex)
    return complex(v.conj() @ np.asarray(element)[site] @ v)


def test_central_multiplicativity():
    rep = central_multiplicativity_check(seed=0)
    assert rep["trials"] == 500
    assert rep["max_central_residual"] <= 1e-13
    assert rep["counterexample_residual"] == pytest.approx(0.5, abs=1e-12)
    assert rep["counterexample"]["chi_ab"] == 0.0
    assert rep["counterexample"]["chi_a_chi_b"] == pytest.approx(0.5, abs=1e-12)


def test_toy_state_is_normalized():
    # every state of the panel, and the counterexample's, is a state: it
    # reads 1 on the identity
    ident = central_element(np.ones(TOY_SITES))
    _, _, sites, v = filtration._central_panel(np.random.default_rng(0))
    alpha = np.pi / 8.0
    for site, vector in [*zip(sites, v), (0, (np.cos(alpha), np.sin(alpha)))]:
        assert state_value(int(site), vector, ident) == pytest.approx(
            1.0, rel=0, abs=1e-15)
    assert state_value(3, (1.0, 0.0), ident) == 1.0


def test_central_element_is_a_scalar_per_site():
    c = np.arange(TOY_SITES) - 2.5j
    a = central_element(c)
    assert a.shape == (TOY_SITES, 2, 2) and a.dtype == complex
    for k in range(TOY_SITES):
        assert np.array_equal(a[k], c[k] * np.eye(2))
    with pytest.raises(ValueError, match="per site"):
        central_element(np.ones(TOY_SITES - 1))


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_central_residual_is_the_per_trial_loop_over_the_panel(seed):
    c, b, sites, v = filtration._central_panel(np.random.default_rng(seed))
    assert c.shape == (500, TOY_SITES) and b.shape == (500, TOY_SITES, 2, 2)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, rtol=0, atol=1e-15)
    chi_ab, chi_a, chi_b = np.empty((3, 500), dtype=complex)
    for i in range(500):
        a = central_element(c[i])
        site, vector = int(sites[i]), tuple(v[i])
        chi_ab[i] = state_value(site, vector, np.einsum("kij,kjl->kil", a, b[i]))
        chi_a[i] = state_value(site, vector, a)
        chi_b[i] = state_value(site, vector, b[i])
    want = float(np.max(np.abs(chi_ab - chi_a * chi_b)))
    assert central_multiplicativity_check(seed=seed)[
        "max_central_residual"] == want


@pytest.mark.parametrize("function, check, key", [
    ("submultiplicativity_residual", "weighted norms submultiplicative",
     "worst_submultiplicativity_slack"),
    ("well_definedness_check", "state extension well defined",
     "worst_well_definedness")])
def test_a_nan_residual_fails_its_check(function, check, key, monkeypatch):
    # NaN on the second of twenty trials: a running max() kept the others
    calls = []
    real = getattr(filtration, function)

    def residual(*args):
        calls.append(1)
        return float("nan") if len(calls) == 2 else real(*args)
    monkeypatch.setattr(filtration, function, residual)
    checks, payload = run_filtration_suite(0)
    assert [c.name for c in checks if not c.passed] == [check]
    assert np.isnan(payload[key])


def test_suite_passes_on_twenty_seeds():
    for seed in range(20):
        checks, payload = run_filtration_suite(seed)
        assert payload["passed"], (seed, [c for c in checks if not c.passed])


@pytest.mark.parametrize("elem", [FilteredElement.time_element(),
                                  element("sin(t) + 0.3", 2)],
                         ids=["T", "degree-2"])
@pytest.mark.parametrize("lattice", [time_lattice, plane_lattice])
def test_grading_bulk_draw_is_the_per_trial_draws(elem, lattice):
    # the loop the check replaced: one draw pair per trial, inner products
    lat = lattice()
    shape = lat.shape + (GRADING_SPINOR_DIM,)
    bulk = np.random.default_rng(5).standard_normal(
        (len(GRADING_GRADES), GRADING_TRIALS, 2) + shape)
    rng = np.random.default_rng(5)
    m = -elem.degree
    t = lat.coordinate_array(0)
    a = elem.sample(lat).values
    best_site = np.unravel_index(
        int(np.argmax(np.abs((1.0 + t ** 2) ** (m / 2.0) * a))), lat.shape)
    want = {}
    for g, n in enumerate(GRADING_GRADES):
        best = 0.0
        for k in range(GRADING_TRIALS + 1):
            if k == 0:
                vals = np.zeros(shape, dtype=complex)
                vals[best_site + (0,)] = 1.0
            else:
                re, im = rng.standard_normal(shape), rng.standard_normal(shape)
                assert np.array_equal(bulk[g, k - 1, 0], re)
                assert np.array_equal(bulk[g, k - 1, 1], im)
                vals = re + 1j * im
            num = inner_product(SpinorField(lat, a[..., None] * vals),
                                SpinorField(lat, a[..., None] * vals),
                                weight=(1.0 + t ** 2) ** float(n + m)).real
            den = inner_product(SpinorField(lat, vals), SpinorField(lat, vals),
                                weight=(1.0 + t ** 2) ** float(n)).real
            best = max(best, np.sqrt(num / den))
        want[n] = float(best)
    assert operator_norm_grading_check(elem, lat, seed=5)["estimates"] == want


def test_random_elements_evaluate_as_their_parsed_labels():
    lat = plane_lattice()
    rng = np.random.default_rng(3)
    for degree in (-2, 0, 1, 2):
        for _ in range(5):
            elem = filtration._random_element(rng, degree)
            parsed = element(elem.label, degree)
            assert np.array_equal(elem.sample(lat).values,
                                  parsed.sample(lat).values), elem.label


def test_filtration_names_no_expression_tree_or_second_scale_floor():
    # the random elements are closures, and the grading spread divides by
    # checks.MIN_SCALE
    source = inspect.getsource(filtration)
    for name in ("Binary", "Call", "Constant", "Variable",
                 "compile_expression", "MIN_GRADING_SCALE"):
        assert name not in source, name
