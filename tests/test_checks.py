"""The verdict record, and each verdict threshold as the bound of one record."""

import re

import pytest

from lorentzlab import clifford, dirac, distance, filtration, moyal, steepness
from lorentzlab.checks import RELATIONS, Check, verdict


@pytest.mark.parametrize("relation", sorted(RELATIONS))
def test_nan_fails_every_relation(relation):
    assert Check("x", float("nan"), relation, 0.0).passed is False


@pytest.mark.parametrize("relation, holds", [("<=", True), (">=", True),
                                             ("<", False), (">", False)])
def test_value_at_its_bound(relation, holds):
    assert Check("x", 0.5, relation, 0.5).passed is holds


def test_verdict_is_every_record_and_their_conjunction():
    checks = [Check("a", 1.0, "<", 2.0), Check("b", 3, "<=", 0)]
    assert verdict(checks) == {
        "checks": [{"name": "a", "value": 1.0, "relation": "<", "bound": 2.0,
                    "passed": True},
                   {"name": "b", "value": 3, "relation": "<=", "bound": 0,
                    "passed": False}],
        "passed": False}
    assert verdict(checks[:1])["passed"] is True


# a module's constants that decide a verdict; the guards and per-site
# certificate tolerances below bound no record
VERDICT_CONSTANT = re.compile(r"\w+_(TOL|FLOOR|BOUND)|NORM_APPROACH|CENTER_CONTRAST")
GUARDS = {"U_VARIATION_TOL", "GOLDEN_TOL", "DECOMPOSITION_TOL",
          "STATE_WEIGHT_FLOOR", "DIV_FLOOR", "EIG_TOL"}

# the checks of each suite, from the module that holds its thresholds
SUITES = {
    clifford: lambda: clifford.check_clifford(clifford.build_gamma(4))[0],
    dirac: lambda: dirac.check_temporal_axioms(dirac.flat_operator(2, 4))[0],
    distance: lambda: distance.run_distance_suite(3, 2, 8, 0)[0],
    moyal: lambda: moyal.run_moyal_suite(quick=True)[0],
    filtration: lambda: filtration.run_filtration_suite()[0],
    steepness: lambda: steepness.equivalence_scan(50, 0)[0],
}


def _verdict_constants(module):
    return sorted(n for n in vars(module)
                  if VERDICT_CONSTANT.fullmatch(n) and n not in GUARDS)


@pytest.mark.parametrize("module, name", [
    (m, n) for m in SUITES for n in _verdict_constants(m)],
    ids=lambda v: v if isinstance(v, str) else v.__name__.split(".")[-1])
def test_each_threshold_bounds_exactly_one_record(module, name, monkeypatch):
    sentinel = 0.123456789
    monkeypatch.setattr(module, name, sentinel)
    assert [c.bound for c in SUITES[module]()].count(sentinel) == 1


@pytest.mark.parametrize("module", list(SUITES),
                         ids=lambda m: m.__name__.split(".")[-1])
def test_every_bound_is_zero_or_a_threshold(module):
    allowed = {0} | {getattr(module, n) for n in _verdict_constants(module)}
    assert {c.bound for c in SUITES[module]()} <= allowed
