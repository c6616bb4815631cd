import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from lorentzlab import distance
from lorentzlab.dirac import flat_operator
from lorentzlab.distance import (PAIR_EXTENT, V_CAP,
                                 boosted_candidate_expressions,
                                 boosted_family_distance, certify_candidates,
                                 golden_section, minkowski_oracle,
                                 run_distance_suite, variational_distance)
from lorentzlab.expressions import AXIS_NAMES, compile_expression
from lorentzlab.filtration import FilteredElement

ROOT3 = 1.7320508075688772            # sqrt(2^2 - 1^2)
CONFORMAL_REF = 1.1477935746963190    # (sqrt(2) + asinh(1)) / 2


def clamped_op(dim=2, n=12):
    box = tuple((-4.0, 4.0) for _ in range(dim))
    return flat_operator(dim, n, box=box, boundary="clamped")


def test_golden_section_quadratic():
    x, fx = golden_section(lambda v: (v - 0.3) ** 2, 0.0, 1.0)
    assert abs(x - 0.3) <= 1e-9
    assert fx <= 1e-18
    # with an O(1) offset the locator hits the sqrt(eps) noise floor
    x1, fx1 = golden_section(lambda v: (v - 0.3) ** 2 + 1.0, 0.0, 1.0)
    assert abs(x1 - 0.3) <= 1e-6
    assert abs(fx1 - 1.0) <= 1e-12


def test_boosted_matches_frozen_root3():
    assert abs(boosted_family_distance((0.0, 0.0), (2.0, 1.0)) - ROOT3) <= 1e-9
    # the family's minimiser sits at v = r/dt
    v, _ = golden_section(lambda v: (2.0 - v) / np.sqrt(1.0 - v * v), 0.0, V_CAP)
    assert abs(v - 0.5) <= 1e-5


def test_boosted_matches_oracle_random_pairs():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 4):
        for _ in range(100):
            p = rng.uniform(-3, 3, size=dim)
            q = rng.uniform(-3, 3, size=dim)
            got = boosted_family_distance(p, q)
            want = minkowski_oracle(p, q)
            assert abs(got - want) <= 1e-6


def test_spacelike_and_reverse_are_exact_zero():
    assert boosted_family_distance((0.0, 0.0), (1.0, 2.0)) == 0.0
    assert boosted_family_distance((1.0, 0.0), (0.0, 0.5)) == 0.0
    assert minkowski_oracle((0.0, 0.0), (1.0, 2.0)) == 0.0


def test_lightlike_collapses():
    # infimum 0 approached as v -> 1; stopping interval ~1e-10 leaves
    # a residual of order sqrt(1 - v) ~ 5e-6
    assert 0.0 <= boosted_family_distance((0.0, 0.0), (1.0, 1.0)) <= 1e-5
    assert minkowski_oracle((0.0, 0.0), (1.0, 1.0)) == 0.0


def test_pure_time_pair():
    assert boosted_family_distance((0.5, 1.0), (2.5, 1.0)) == 2.0


def test_boost_invariance():
    # Lorentz boost with v = 0.6 along x in 2+1 dimensions
    g = 1.0 / np.sqrt(1.0 - 0.6 ** 2)
    lam = np.array([[g, -0.6 * g, 0.0], [-0.6 * g, g, 0.0], [0.0, 0.0, 1.0]])
    eta = np.diag([-1.0, 1.0, 1.0])
    assert np.abs(lam.T @ eta @ lam - eta).max() <= 1e-12
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = rng.uniform(-2, 2, size=3)
        q = p + np.array([rng.uniform(0.5, 2.0), *rng.uniform(-0.3, 0.3, 2)])
        d0 = boosted_family_distance(p, q)
        d1 = boosted_family_distance(lam @ p, lam @ q)
        assert abs(d0 - d1) <= 1e-9


def test_antisymmetry():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = rng.uniform(-3, 3, size=2)
        q = rng.uniform(-3, 3, size=2)
        fwd = boosted_family_distance(p, q)
        back = boosted_family_distance(q, p)
        if fwd > 0:
            assert back == 0.0


def test_reverse_triangle_inequality():
    rng = np.random.default_rng(17)
    for _ in range(100):
        p = rng.uniform(-1, 1, size=3)
        step1 = np.array([rng.uniform(0.6, 1.5), *rng.uniform(-0.3, 0.3, 2)])
        step2 = np.array([rng.uniform(0.6, 1.5), *rng.uniform(-0.3, 0.3, 2)])
        m = p + step1
        q = m + step2
        d_pq = boosted_family_distance(p, q)
        d_pm = boosted_family_distance(p, m)
        d_mq = boosted_family_distance(m, q)
        assert d_pq >= d_pm + d_mq - 1e-9


def conformal_time_distance(t0, t1, u="1"):
    """Distance along a pure time displacement for ds^2 = -u(t)dt^2 + dx^2.

    The tau oracle of a lapse u(t): u is an expression string in t, the
    steep time function is tau(t) = int sqrt(u), and the distance between
    (t0, x) and (t1, x) is tau(t1) - tau(t0) for t1 >= t0, else 0.
    """
    _, compiled = compile_expression(u)
    u_fn = lambda t: compiled(t=np.asarray(t, dtype=float))
    t0, t1 = float(t0), float(t1)
    if t1 <= t0:
        return 0.0
    for ts in np.linspace(t0, t1, 7):
        if not float(u_fn(ts)) > 0.0:
            raise ValueError("u(t) must be positive on [t0, t1]; "
                             "u(%r) = %r" % (ts, float(u_fn(ts))))
    val, _ = quad(lambda s: np.sqrt(float(u_fn(s))), t0, t1,
                  epsabs=1e-12, epsrel=1e-12, limit=200)
    return float(val)


def test_conformal_flat_is_dt():
    assert abs(conformal_time_distance(0.25, 1.75, u="1") - 1.5) <= 1e-12
    assert conformal_time_distance(1.0, 0.0) == 0.0


def test_conformal_frozen_value():
    # int_0^1 sqrt(1 + t^2) dt = (sqrt(2) + asinh(1)) / 2
    value = conformal_time_distance(0.0, 1.0, u="1 + t^2")
    assert abs(value - CONFORMAL_REF) <= 1e-10
    closed = 0.5 * (np.sqrt(2.0) + np.arcsinh(1.0))
    assert abs(value - closed) <= 1e-10


def test_conformal_constant_u_scaling():
    # u = 4: time axis stretched by 2
    assert abs(conformal_time_distance(0.0, 1.0, u="4") - 2.0) <= 1e-12


def test_conformal_rejects_nonpositive_u():
    with pytest.raises(ValueError):
        conformal_time_distance(0.0, 3.0, u="1 - t")


def pool_of(candidates, dim=2):
    return certify_candidates(candidates, clamped_op(dim=dim))


def test_variational_meets_oracle():
    pool = pool_of(boosted_candidate_expressions(axes=("x",)))
    value, label = variational_distance((0.0, 0.0), (2.0, 1.0), pool)
    oracle = minkowski_oracle((0.0, 0.0), (2.0, 1.0))
    assert value >= oracle - 1e-9
    assert "0.5" in label             # v = 0.5 boost achieves sqrt(3)
    assert abs(value - ROOT3) <= 1e-9
    assert pool.rejected == ()


def test_variational_time_candidate_exact():
    value, label = variational_distance((0.25, 0.5), (1.75, -0.5),
                                        pool_of(["t"]))
    assert value == 1.5                # plain subtraction, no rounding
    assert label == "t"


def test_variational_records_rejections():
    pool = pool_of(["0.5*t", "t"])
    assert [c[0] for c in pool.certified] == ["t"]
    assert variational_distance((0.0, 0.0), (1.5, 0.0), pool)[0] == 1.5
    (record,) = pool.rejected
    assert set(record) == {"candidate", "worst_margin"}
    assert record["candidate"] == "0.5*t"
    assert record["worst_margin"] < 0


def test_variational_no_steep_candidate_raises():
    with pytest.raises(ValueError, match="no steep candidates"):
        pool_of(["0.5*t"])


def test_pool_rejects_a_candidate_whose_gradients_overflow():
    # the field overflows to inf and its stencil gradients to NaN
    op = flat_operator(2, 16, box=((-3.0, 3.0), (-3.0, 3.0)), boundary="clamped")
    with pytest.raises(ValueError, match="no steep candidates"):
        certify_candidates(["t+1e308*x"], op)
    pool = certify_candidates(["t+1e308*x", "t"], op)
    assert [label for label, *_ in pool.certified] == ["t"]
    assert [r["candidate"] for r in pool.rejected] == ["t+1e308*x"]
    assert np.isnan(pool.rejected[0]["worst_margin"])


def test_variational_dimension_mismatch():
    pool = pool_of(["t"], dim=2)
    with pytest.raises(ValueError, match="dimension"):
        variational_distance((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), pool)


def test_variational_filtered_element_candidate():
    pool = pool_of([FilteredElement.time_element()])
    value, label = variational_distance((0.0, 0.0), (2.0, 0.5), pool)
    assert abs(value - 2.0) <= 1e-12
    assert label == "T"


def suite_op():
    """The distance suite's certification operator: clamped 16^2 on
    [-PAIR_EXTENT, PAIR_EXTENT]^2."""
    box = ((-PAIR_EXTENT, PAIR_EXTENT),) * 2
    return flat_operator(2, 16, box=box, boundary="clamped")


def _time_bounded_part(scale):
    return lambda **c: scale * c["t"] / np.sqrt(1.0 + c["t"] ** 2)


def test_filtered_time_element_matches_the_time_expression():
    # a filtered element is evaluated at events by the pure-state extension
    # rule: for the time element that is (1+t^2)^{1/2} t/sqrt(1+t^2) = t
    op = suite_op()
    pool = certify_candidates([FilteredElement.time_element()], op)
    assert [label for label, *_ in pool.certified] == ["T"]
    assert pool.rejected == ()
    events = np.random.default_rng(7).uniform(-PAIR_EXTENT, PAIR_EXTENT,
                                              size=(50, 2, 2))
    p, q = events[:, 0], events[:, 1]
    got, labels = variational_distance(p, q, pool)
    want, _ = variational_distance(p, q, certify_candidates(["t"], op))
    assert np.max(np.abs(got - want)) <= 1e-15
    assert set(labels) == {"T"}


def test_unlabelled_filtered_element_reports_filtered():
    pool = certify_candidates([FilteredElement(1, _time_bounded_part(1.0))],
                              suite_op())
    assert variational_distance((0.0, 0.0), (1.0, 0.5), pool)[1] == "filtered"


def test_filtered_element_of_half_the_time_is_refused():
    half = FilteredElement(1, _time_bounded_part(0.5), "T/2")
    with pytest.raises(ValueError, match="no steep candidates"):
        certify_candidates([half], suite_op())
    pool = certify_candidates([half, FilteredElement.time_element()],
                              suite_op())
    assert [label for label, *_ in pool.certified] == ["T"]
    (record,) = pool.rejected
    assert record["candidate"] == "T/2" and record["worst_margin"] < 0


def test_variational_spacelike_clips_to_zero():
    value, _ = variational_distance((0.0, 0.0), (-1.0, 0.0), pool_of(["t"]))
    assert value == 0.0


def test_variational_ties_keep_the_first_candidate():
    # both candidates give dt on a pure time displacement
    pool = pool_of(["t", "t + 0*x"])
    assert variational_distance((0.0, 0.0), (1.0, 0.0), pool)[1] == "t"


def test_variational_refuses_events_outside_the_certified_box():
    pool = pool_of(["t"])              # certified on [-4, 4]^2
    assert variational_distance((-4.0, 4.0), (4.0, -4.0), pool)[0] == 8.0
    for p, q in (((0.0, 0.0), (4.5, 0.0)), ((-4.1, 0.0), (0.0, 0.0)),
                 ((0.0, 0.0), (1.0, -5.0))):
        with pytest.raises(ValueError, match="outside the certified box"):
            variational_distance(p, q, pool)


def test_distance_suite_certifies_each_candidate_once(monkeypatch):
    calls = []
    certify = distance.is_steep_matrix

    def counted(*args, **kwargs):
        calls.append(args[0])
        return certify(*args, **kwargs)
    monkeypatch.setattr(distance, "is_steep_matrix", counted)
    checks, payload, rows = run_distance_suite(25, 2, 8, 1)
    assert len(rows) == 25 and payload["passed"]
    assert len(calls) == len(payload["candidates"]) == 4


def test_distance_payload_keeps_the_largest_certified_hermiticity_residual(
        monkeypatch):
    # max |M - M^dagger| of each certificate, over the certified candidates
    # alone; a NaN residual is kept (an artifact writes it as null)
    _, payload, _ = run_distance_suite(5, 2, 16, 42)
    pool = certify_candidates(payload["candidates"], suite_op())
    assert payload["max_certified_hermiticity_residual"] == max(
        herm for *_, herm in pool.certified)
    certify = distance.is_steep_matrix
    for residuals, want in (([1e-16, 5.0, 3e-16], 3e-16),
                            ([0.0, 5.0, np.nan], np.nan)):
        given = iter(residuals)
        monkeypatch.setattr(distance, "is_steep_matrix", lambda f, D: (
            dataclasses.replace(certify(f, D), hermiticity_residual=next(given))))
        _, payload, _ = run_distance_suite(5, 2, 12, 42,
                                           candidates=["t", "0.5*t", "1.25*t"])
        assert [r["candidate"] for r in payload["rejected"]] == ["0.5*t"]
        np.testing.assert_equal(payload["max_certified_hermiticity_residual"],
                                want)


def test_distance_suite_certifies_on_the_sampled_box():
    # |t| is steep on [0, n] but not on [-3, 3], where the events are drawn
    with pytest.raises(ValueError, match="no steep candidates"):
        run_distance_suite(5, 2, 12, 42, candidates=["2*abs(t)"])
    checks, payload, rows = run_distance_suite(5, 2, 12, 42,
                                               candidates=["2*abs(t)", "t"])
    assert payload["passed"]
    assert {row[-1] for row in rows} == {"t"}
    assert [r["candidate"] for r in payload["rejected"]] == ["2*abs(t)"]


def test_mismatched_or_empty_events_raise():
    pool = pool_of(["t"])
    for route in (minkowski_oracle, boosted_family_distance,
                  lambda p, q: variational_distance(p, q, pool)):
        with pytest.raises(ValueError, match="different dimensions"):
            route((0.0, 0.0), (1.0,))
        with pytest.raises(ValueError, match="at least a time coordinate"):
            route((), ())
        with pytest.raises(ValueError, match="broadcast"):
            route(np.zeros((2, 2)), np.zeros((3, 2)))
    assert minkowski_oracle((0.0, 0.0, 0.0), (13.0, 3.0, 4.0)) == 12.0


def test_a_stack_with_one_event_outside_the_box_names_it():
    pool = pool_of(["t"])              # certified on [-4, 4]^2
    p = np.zeros((5, 2))
    q = np.tile([1.0, 0.5], (5, 1))
    q[3] = (2.0, -4.25)
    with pytest.raises(ValueError, match=r"event \(2\.0, -4\.25\) lies "
                                         "outside the certified box"):
        variational_distance(p, q, pool)


@pytest.mark.parametrize("candidates", [
    boosted_candidate_expressions(axes=("x",)) + ["t + 0*x", "2*abs(t)"],
    [FilteredElement.time_element(), "t"],
], ids=["expressions", "filtered"])
def test_variational_on_a_stack_is_each_pair_alone(candidates):
    pool = pool_of(candidates)
    rng = np.random.default_rng(8)
    p = rng.uniform(-4.0, 4.0, size=(40, 2))
    q = rng.uniform(-4.0, 4.0, size=(40, 2))
    q[:5] = p[:5] + (1.0, 0.0)         # pure time steps: ties between t's
    values, labels = variational_distance(p, q, pool)
    assert values.shape == labels.shape == (40,)
    alone = [variational_distance(a, b, pool) for a, b in zip(p, q)]
    assert [float(v) for v, _ in alone] == values.tolist()
    assert [label for _, label in alone] == labels.tolist()
    pairs = np.stack((p, q), axis=1).reshape(4, 10, 2, 2)
    values, labels = variational_distance(pairs[..., 0, :], pairs[..., 1, :],
                                          pool)
    assert values.shape == labels.shape == (4, 10)
    assert [float(v) for v, _ in alone] == values.ravel().tolist()
    assert [label for _, label in alone] == labels.ravel().tolist()


def test_suite_draws_p_then_q_for_each_pair():
    rng = np.random.default_rng(5)
    drawn = np.array([(rng.uniform(-PAIR_EXTENT, PAIR_EXTENT, size=2),
                       rng.uniform(-PAIR_EXTENT, PAIR_EXTENT, size=2))
                      for _ in range(12)])
    one_draw = np.random.default_rng(5).uniform(-PAIR_EXTENT, PAIR_EXTENT,
                                                size=(12, 2, 2))
    assert np.array_equal(one_draw, drawn)
    _, _, rows = run_distance_suite(12, 2, 8, 5)
    p, q = drawn[:, 0], drawn[:, 1]
    assert np.array_equal([row[1] for row in rows], q[:, 0] - p[:, 0])
    assert np.array_equal([row[3] for row in rows],
                          [minkowski_oracle(a, b) for a, b in zip(p, q)])
    assert np.array_equal([row[4] for row in rows],
                          [boosted_family_distance(a, b) for a, b in zip(p, q)])


def test_candidate_expression_pool():
    pool = boosted_candidate_expressions(axes=("x", "y"))
    assert pool.count("t") == 1
    assert any("0.5" in s and "x" in s for s in pool)
    assert any("y" in s for s in pool)
    # every non-trivial entry encodes gamma explicitly
    for s in pool:
        if s != "t":
            assert "* (t -" in s


def test_routes_return_plain_values():
    assert type(boosted_family_distance((0.0, 0.0), (2.0, 1.0))) is float
    assert type(boosted_family_distance((0.0, 0.0), (1.0, 2.0))) is float
    assert type(conformal_time_distance(0.0, 1.0, u="4")) is float
    assert type(conformal_time_distance(1.0, 0.0)) is float
    assert np.ndim(minkowski_oracle((0.0, 0.0), (2.0, 1.0))) == 0
    value, label = variational_distance((0.0, 0.0), (2.0, 1.0), pool_of(["t"]))
    assert np.ndim(value) == 0 and type(label) is str


@pytest.mark.parametrize("dim, points", [(2, 16), (4, 6)])
def test_dilating_events_and_box_doubles_every_distance(dim, points):
    # d(2p, 2q) = 2 d(p, q), exactly: doubling is exact in floating point,
    # and so it passes through the oracle's sqrt, the linear boosted
    # candidates and every golden-section comparison unchanged
    events = np.random.default_rng(5).uniform(-PAIR_EXTENT, PAIR_EXTENT,
                                              size=(200, 2, dim))
    cands = boosted_candidate_expressions(axes=AXIS_NAMES[1:dim])
    routes = []
    for scale in (1.0, 2.0):
        box = ((-scale * PAIR_EXTENT, scale * PAIR_EXTENT),) * dim
        pool = certify_candidates(cands, flat_operator(dim, points, box=box,
                                                       boundary="clamped"))
        assert pool.rejected == ()
        p, q = scale * events[:, 0], scale * events[:, 1]
        boosted = [boosted_family_distance(a, b) for a, b in zip(p, q)]
        routes.append((minkowski_oracle(p, q), np.array(boosted),
                       *variational_distance(p, q, pool)))
    (oracle, boosted, vari, labels), dilated = routes
    assert np.count_nonzero(oracle) >= 10 and len(set(labels)) > 1
    for got, want in zip(dilated[:3], (oracle, boosted, vari)):
        assert np.array_equal(got, 2.0 * want)
    assert np.array_equal(dilated[3], labels)
