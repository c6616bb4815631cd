"""End-to-end acceptance criteria, one printed verdict line per criterion."""

import time

import numpy as np

from lorentzlab import cli
from lorentzlab.clifford import build_gamma, check_clifford, max_abs
from lorentzlab.dirac import DiracOperator, check_temporal_axioms, flat_operator
from lorentzlab.distance import (boosted_candidate_expressions,
                                 boosted_family_distance, certify_candidates,
                                 minkowski_oracle, variational_distance)
from lorentzlab.expressions import compile_expression
from lorentzlab.filtration import (FilteredElement,
                                   central_multiplicativity_check,
                                   operator_norm_grading_check,
                                   submultiplicativity_residual,
                                   weighted_norm, well_definedness_check)
from lorentzlab.lattice import Lattice
from lorentzlab.moyal import run_moyal_suite
from lorentzlab.steepness import equivalence_scan
from oracles import fundamental_symmetry, krein_adjoint


def _criterion(name, ok, detail=""):
    print("%s %-40s %s" % ("PASS" if ok else "FAIL", name, detail))
    assert ok, "%s: %s" % (name, detail)


def test_gamma_algebra_exact():
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4, 6):
        rep = build_gamma(n)
        _, report = check_clifford(rep)
        worst = max(worst, report["max_residual"])
        assert report["passed"]

        j = fundamental_symmetry(rep)
        eye = np.eye(rep.matrix_size)
        j_resid = max(max_abs(j.imag), max_abs(j - j.conj().T),
                      max_abs(j @ j - eye))
        assert j_resid <= 1e-14
        for g in rep.matrices:
            assert max_abs(krein_adjoint(g, j) + g) <= 1e-14

        if n % 2 == 0:
            ch = rep.grading
            assert max_abs(ch - np.diag(np.diag(ch))) == 0.0
            assert max_abs(ch @ ch - eye) == 0.0
            for g in rep.matrices:
                assert max_abs(ch @ g + g @ ch) <= 1e-12
    elapsed = time.perf_counter() - start
    _criterion("gamma algebra exact (n = 2, 3, 4, 6)", worst <= 1e-12,
               "max residual %.3e, %.2fs" % (worst, elapsed))
    assert elapsed < 1.0


def test_temporal_axiom_suite():
    start = time.perf_counter()
    flat_checks, flat = check_temporal_axioms(flat_operator(2, 16), seed=0)
    scaled_checks, scaled = check_temporal_axioms(flat_operator(2, 16, u="4"),
                                                  seed=0)
    for checks, rep in ((flat_checks, flat), (scaled_checks, scaled)):
        assert rep["hermiticity_residual"] <= 1e-12
        assert rep["u_square_deviation"] <= 1e-13
        assert rep["skew_residual"] <= 1e-12
        assert rep["krein_skew_residual"] <= 1e-12
        assert rep["krein_equiv_residual"] <= 1e-12
        assert rep["commute_residual"] <= 1e-12
        assert rep["elliptic_min_eigenvalue"] >= -1e-10
        assert all(c.passed for c in checks)
    # u = 4 halves the commutator: [D, T]^2 = I/4 on the nose
    assert scaled["u_ax_min"] == 0.25
    assert scaled["u_ax_max"] == 0.25
    elapsed = time.perf_counter() - start
    worst = max(flat["u_square_deviation"], scaled["u_square_deviation"])
    _criterion("temporal axiom suite (16x16, u = 1 and 4)", True,
               "[D,T]^2 deviation %.3e, %.2fs" % (worst, elapsed))
    assert elapsed < 10.0


def test_temporal_axiom_suite_4d(monkeypatch):
    # 5^4 sites x 4 spinor components: the sparse D and momentum blocks
    # replace dense 2500^2 products and a 2500^2 eigvalsh, and no dense
    # route to D is taken
    def refuse(self):
        raise AssertionError("dense_matrix called")
    monkeypatch.setattr(DiracOperator, "dense_matrix", refuse)
    start = time.perf_counter()
    checks, rep = check_temporal_axioms(flat_operator(4, 5), seed=0)
    elapsed = time.perf_counter() - start
    failed = [c.name for c in checks if not c.passed]
    _criterion("temporal axiom suite (4-d, 5^4 sites)", not failed,
               "min <D>^2 eigenvalue %.3e, %.2fs"
               % (rep["elliptic_min_eigenvalue"], elapsed))
    assert len(checks) == 9
    assert elapsed < 1.0


def test_steepness_route_equivalence():
    start = time.perf_counter()
    total_disagree = 0
    for dim in (2, 4):
        _, scan = equivalence_scan(1000, seed=42, dimension=dim)
        total_disagree += len(scan["disagreements"])
        assert scan["agreements"] == 1000
        assert 0 < scan["steep_count"] < 1000
    elapsed = time.perf_counter() - start
    _criterion("steepness routes agree (1000 draws x 2 dims)",
               total_disagree == 0,
               "%d disagreements, %.2fs" % (total_disagree, elapsed))
    assert elapsed < 5.0


def test_boosted_distance_vs_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for dim in (2, 3, 4):
        for _ in range(100):
            p = rng.uniform(-3, 3, size=dim)
            q = rng.uniform(-3, 3, size=dim)
            worst = max(worst, abs(boosted_family_distance(p, q)
                                   - minkowski_oracle(p, q)))
    # spacelike and past-directed pairs collapse exactly
    assert boosted_family_distance((0.0, 0.0), (1.0, 2.0)) == 0.0
    assert boosted_family_distance((1.0, 0.0), (0.0, 0.0)) == 0.0
    # reverse triangle inequality along timelike chains
    slack = 0.0
    for _ in range(100):
        p = rng.uniform(-1, 1, size=3)
        m = p + np.array([rng.uniform(0.6, 1.5), *rng.uniform(-0.3, 0.3, 2)])
        q = m + np.array([rng.uniform(0.6, 1.5), *rng.uniform(-0.3, 0.3, 2)])
        slack = min(slack, boosted_family_distance(p, q)
                    - boosted_family_distance(p, m)
                    - boosted_family_distance(m, q))
    elapsed = time.perf_counter() - start
    _criterion("boosted distance matches oracle", worst <= 1e-6,
               "max |gap| %.3e, triangle slack %.3e, %.2fs"
               % (worst, slack, elapsed))
    assert slack >= -1e-9
    assert elapsed < 5.0


def test_variational_distance_certified():
    start = time.perf_counter()
    box = ((-4.0, 4.0), (-4.0, 4.0))
    op = flat_operator(2, 12, box=box, boundary="clamped")
    pool = certify_candidates(boosted_candidate_expressions(axes=("x",)), op)
    time_only = certify_candidates(["t"], op)
    rng = np.random.default_rng(42)
    worst_gap = -np.inf
    for _ in range(20):
        p = rng.uniform(-2, 2, size=2)
        q = p + np.array([rng.uniform(0.5, 1.5), rng.uniform(-0.4, 0.4)])
        value, _ = variational_distance(p, q, pool)
        gap = minkowski_oracle(p, q) - value
        worst_gap = max(worst_gap, gap)
        # the plain time function reproduces dt with no rounding at all
        exact, _ = variational_distance(p, q, time_only)
        assert exact == max(0.0, float(q[0] - p[0]))
    elapsed = time.perf_counter() - start
    _criterion("variational distance above oracle", worst_gap <= 1e-9,
               "worst oracle excess %.3e, %.2fs" % (worst_gap, elapsed))
    assert elapsed < 5.0


def test_star_product_suite():
    start = time.perf_counter()
    checks, suite = run_moyal_suite(theta=0.5, truncation=16)
    assert suite["passed"] == all(c.passed for c in checks)
    delta = suite["delta_algebra"]
    assert delta["projection_residual"] <= 5e-11
    cross = suite["cross_engine"]
    assert cross["quadrature_vs_basis"] <= 1e-4
    assert cross["twisted_vs_basis"] <= 1e-4
    assert suite["commutation"]["residual"] <= 1e-6
    assert suite["associativity_residual"] <= 1e-5
    assert suite["trace_residual"] <= 1e-5
    cases = suite["center_time"]["cases"]
    assert [c["commutator_residual"] <= 1e-10 if c["commutative_time"]
            else c["commutator_residual"] >= 1e-3 for c in cases] == [True] * 3
    assert [c["commutative_time"] for c in cases] == [True, True, False]
    elapsed = time.perf_counter() - start
    _criterion("star product suite (theta = 0.5)", suite["passed"],
               "delta %.3e, commutator %.3e, %.2fs"
               % (delta["projection_residual"],
                  suite["commutation"]["residual"], elapsed))
    assert elapsed < 10.0


def test_filtered_algebra_suite():
    start = time.perf_counter()
    lat = Lattice(((-8.0, 8.0), (-2.0, 2.0)), (65, 5), boundary="clamped")
    t_elem = FilteredElement.time_element()
    t_norm = weighted_norm(t_elem, -1, lat)
    assert abs(t_norm - 8.0 / np.sqrt(65.0)) <= 1e-15

    grading = operator_norm_grading_check(t_elem, lat, seed=42)
    assert grading["spread"] <= 1e-10
    estimates = np.array(list(grading["estimates"].values()))
    assert np.all(estimates <= grading["weighted_norm"] * (1.0 + 1e-12))
    assert estimates.min() >= 0.95 * grading["weighted_norm"]

    rng = np.random.default_rng(42)
    worst_slack = -np.inf
    worst_ext = 0.0
    for _ in range(20):
        ca = tuple(float(v) for v in rng.uniform(-2, 2, size=3))
        cb = tuple(float(v) for v in rng.uniform(-2, 2, size=3))
        texts = ("%r*sin(t) + %r*cos(x) + %r" % ca,
                 "%r*cos(t) + %r*sin(x) + %r" % cb)
        a, b = (FilteredElement(int(rng.integers(0, 3)),
                                compile_expression(text)[1], text)
                for text in texts)
        worst_slack = max(worst_slack, submultiplicativity_residual(a, b, lat))
        states = [tuple(rng.uniform(-3, 3, size=2)) for _ in range(5)]
        worst_ext = max(worst_ext, well_definedness_check(
            a, a.to_degree(a.degree + 2), lat, states))
    assert worst_slack <= 1e-12
    assert worst_ext <= 1e-12

    cent = central_multiplicativity_check(seed=42)
    assert cent["max_central_residual"] <= 1e-13
    assert abs(cent["counterexample_residual"] - 0.5) <= 1e-12
    elapsed = time.perf_counter() - start
    _criterion("filtered algebra suite", True,
               "submult slack %.3e, central %.3e, %.2fs"
               % (worst_slack, cent["max_central_residual"], elapsed))
    assert elapsed < 5.0


def test_deterministic_artifacts(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    first.mkdir(), second.mkdir()
    argv = ["report", "--points", "12", "--pairs", "10"]
    assert cli.main(argv + ["--out", str(first)]) == 0
    assert cli.main(argv + ["--out", str(second)]) == 0
    same = True
    for name in ("report.json", "distance.csv"):
        a = (first / name).read_bytes()
        b = (second / name).read_bytes()
        same = same and a == b and b"\r" not in a and a.endswith(b"\n")
    _criterion("artifacts are byte-identical across reruns", same,
               "report.json + distance.csv")
