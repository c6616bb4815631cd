from dataclasses import asdict

import numpy as np
import pytest

from lorentzlab import distance
from lorentzlab.dirac import flat_operator
from lorentzlab.distance import (EventPair, boosted_candidate_expressions,
                                 boosted_family_distance, certify_candidates,
                                 conformal_time_distance, golden_section,
                                 minkowski_oracle, run_distance_suite,
                                 variational_distance)
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
    res = boosted_family_distance((0.0, 0.0), (2.0, 1.0))
    assert abs(res.value - ROOT3) <= 1e-9
    assert abs(res.params["v"] - 0.5) <= 1e-5     # minimiser at v = r/dt


def test_boosted_matches_oracle_random_pairs():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 4):
        for _ in range(100):
            p = rng.uniform(-3, 3, size=dim)
            q = rng.uniform(-3, 3, size=dim)
            got = boosted_family_distance(p, q).value
            want = minkowski_oracle(p, q)
            assert abs(got - want) <= 1e-6


def test_spacelike_and_reverse_are_exact_zero():
    assert boosted_family_distance((0.0, 0.0), (1.0, 2.0)).value == 0.0
    assert boosted_family_distance((1.0, 0.0), (0.0, 0.5)).value == 0.0
    assert minkowski_oracle((0.0, 0.0), (1.0, 2.0)) == 0.0


def test_lightlike_collapses():
    # infimum 0 approached as v -> 1; stopping interval ~1e-10 leaves
    # a residual of order sqrt(1 - v) ~ 5e-6
    res = boosted_family_distance((0.0, 0.0), (1.0, 1.0))
    assert 0.0 <= res.value <= 1e-5
    assert minkowski_oracle((0.0, 0.0), (1.0, 1.0)) == 0.0


def test_pure_time_pair():
    res = boosted_family_distance((0.5, 1.0), (2.5, 1.0))
    assert res.value == 2.0
    assert res.params["v"] == 0.0


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
        d0 = boosted_family_distance(p, q).value
        d1 = boosted_family_distance(lam @ p, lam @ q).value
        assert abs(d0 - d1) <= 1e-9


def test_antisymmetry():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = rng.uniform(-3, 3, size=2)
        q = rng.uniform(-3, 3, size=2)
        fwd = boosted_family_distance(p, q).value
        back = boosted_family_distance(q, p).value
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
        d_pq = boosted_family_distance(p, q).value
        d_pm = boosted_family_distance(p, m).value
        d_mq = boosted_family_distance(m, q).value
        assert d_pq >= d_pm + d_mq - 1e-9


def test_conformal_flat_is_dt():
    res = conformal_time_distance(0.25, 1.75, u="1")
    assert abs(res.value - 1.5) <= 1e-12
    assert conformal_time_distance(1.0, 0.0).value == 0.0


def test_conformal_frozen_value():
    # int_0^1 sqrt(1 + t^2) dt = (sqrt(2) + asinh(1)) / 2
    res = conformal_time_distance(0.0, 1.0, u="1 + t^2")
    assert abs(res.value - CONFORMAL_REF) <= 1e-10
    closed = 0.5 * (np.sqrt(2.0) + np.arcsinh(1.0))
    assert abs(res.value - closed) <= 1e-10


def test_conformal_callable_and_scaling():
    # u = 4: time axis stretched by 2
    res = conformal_time_distance(0.0, 1.0, u=lambda t: 4.0)
    assert abs(res.value - 2.0) <= 1e-12


def test_conformal_rejects_nonpositive_u():
    with pytest.raises(ValueError):
        conformal_time_distance(0.0, 3.0, u="1 - t")


def pool_of(candidates, dim=2):
    return certify_candidates(candidates, clamped_op(dim=dim))


def test_variational_meets_oracle():
    pool = pool_of(boosted_candidate_expressions(axes=("x",)))
    res = variational_distance((0.0, 0.0), (2.0, 1.0), pool)
    oracle = minkowski_oracle((0.0, 0.0), (2.0, 1.0))
    assert res.value >= oracle - 1e-9
    assert "0.5" in res.achieving     # v = 0.5 boost achieves sqrt(3)
    assert abs(res.value - ROOT3) <= 1e-9
    assert res.rejected == []


def test_variational_time_candidate_exact():
    res = variational_distance((0.25, 0.5), (1.75, -0.5), pool_of(["t"]))
    assert res.value == 1.5            # plain subtraction, no rounding
    assert res.achieving == "t"


def test_variational_records_rejections():
    pool = pool_of(["0.5*t", "t"])
    assert [c[0] for c in pool.certified] == ["t"]
    res = variational_distance((0.0, 0.0), (1.5, 0.0), pool)
    assert res.value == 1.5
    assert len(res.rejected) == 1
    assert res.rejected[0]["candidate"] == "0.5*t"
    assert res.rejected[0]["worst_margin"] < 0


def test_variational_no_steep_candidate_raises():
    with pytest.raises(ValueError, match="no steep candidates"):
        pool_of(["0.5*t"])


def test_variational_dimension_mismatch():
    pool = pool_of(["t"], dim=2)
    with pytest.raises(ValueError, match="dimension"):
        variational_distance((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), pool)


def test_variational_filtered_element_candidate():
    pool = pool_of([FilteredElement.time_element()])
    res = variational_distance((0.0, 0.0), (2.0, 0.5), pool)
    assert abs(res.value - 2.0) <= 1e-12
    assert res.achieving == "T"


def test_variational_spacelike_clips_to_zero():
    res = variational_distance((0.0, 0.0), (-1.0, 0.0), pool_of(["t"]))
    assert res.value == 0.0


def test_variational_ties_keep_the_first_candidate():
    # both candidates give dt on a pure time displacement
    pool = pool_of(["t", "t + 0*x"])
    assert variational_distance((0.0, 0.0), (1.0, 0.0), pool).achieving == "t"


def test_variational_refuses_events_outside_the_certified_box():
    pool = pool_of(["t"])              # certified on [-4, 4]^2
    assert variational_distance((-4.0, 4.0), (4.0, -4.0), pool).value == 8.0
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


def test_distance_suite_certifies_on_the_sampled_box():
    # |t| is steep on [0, n] but not on [-3, 3], where the events are drawn
    with pytest.raises(ValueError, match="no steep candidates"):
        run_distance_suite(5, 2, 12, 42, candidates=["2*abs(t)"])
    checks, payload, rows = run_distance_suite(5, 2, 12, 42,
                                               candidates=["2*abs(t)", "t"])
    assert payload["passed"]
    assert {row[-1] for row in rows} == {"t"}


def test_event_pair_validation():
    with pytest.raises(ValueError):
        EventPair((0.0, 0.0), (1.0,))
    with pytest.raises(ValueError):
        EventPair((), ())
    pair = EventPair((0.0, 0.0, 0.0), (2.0, 3.0, 4.0))
    assert pair.dt == 2.0
    assert pair.spatial_separation == 5.0
    assert np.allclose(pair.direction, [0.6, 0.8])


def test_candidate_expression_pool():
    pool = boosted_candidate_expressions(axes=("x", "y"))
    assert pool.count("t") == 1
    assert any("0.5" in s and "x" in s for s in pool)
    assert any("y" in s for s in pool)
    # every non-trivial entry encodes gamma explicitly
    for s in pool:
        if s != "t":
            assert "* (t -" in s


def test_result_serialization():
    res = boosted_family_distance((0.0, 0.0), (2.0, 1.0))
    d = asdict(res)
    assert set(d) == {"value", "mode", "params", "achieving", "rejected",
                      "gap_vs_oracle"}
    assert d["mode"] == "boosted"
