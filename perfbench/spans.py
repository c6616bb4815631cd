"""In-memory spans around the public functions of each lorentzlab module.

The wrappers live here, not in the library: ``install`` replaces every
traced function in each namespace where a caller looks it up (module
globals such as ``distance.is_steep_matrix`` or ``dirac.gradient``, and
class attributes such as ``DiracOperator.dense_matrix``).  Each call appends
one span ``[name, start, end, parent]`` to a list kept in memory; ``dump``
writes the list once, when the run ends.  A few calls also feed exact
counters (grid points, dense dimensions, distinct inputs).

``layer_metrics`` turns a dumped trace into the per-layer metrics.  Self
time is a span's duration minus the time covered by its child spans.
"""

import functools
import hashlib
import inspect
import json
import math
import sys
import time

clock = time.monotonic


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}
        self.keys = {}           # counter name -> set of distinct inputs

    def add(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def distinct(self, name, key):
        self.keys.setdefault(name, set()).add(key)

    def peak(self, name, value):
        self.counts[name] = max(self.counts.get(name, value), value)

    def span(self, name, fn, hook=None):
        """Wrap fn so each call records a span; hook(tracer, *args) runs first."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(self, *args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
        return wrapper

    def counter(self, name, fn):
        """Wrap fn so each call only bumps a counter (no span, no clock)."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)
        return wrapper

    def dump(self, path):
        counts = dict(self.counts)
        counts.update({k: len(v) for k, v in self.keys.items()})
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": counts}, fh,
                      separators=(",", ":"))


# ----------------------------------------------------------- counter hooks


def _twisted(tr, f, h, lat, *args, **kwargs):
    tr.add("moyal.twisted_grid_points", lat.points[0] * lat.points[1])


def _dense(tr, op):
    n = op.dense_dim
    tr.peak("dirac.dense_dim", n)
    tr.add("dirac.dense_bytes_computed", 16 * n * n)


def _certify(tr, f, D, *args, **kwargs):
    tr.add("steepness.sites_certified", f.lattice.site_count)
    digest = hashlib.blake2b(f.values.tobytes(), digest_size=16).digest()
    tr.distinct("steepness.certify_distinct", (digest, repr(D.lattice)))


def _compile(tr, text_or_ast):
    key = text_or_ast if isinstance(text_or_ast, str) else repr(text_or_ast)
    tr.distinct("expressions.compile_distinct", key)


# module -> traced functions; "*" traces every public function it defines
TRACED = {
    "cli": ["validate_config", "write_json", "write_distance_csv"],
    "moyal": ["star_twisted", "star_quadrature", "basis_values", "phys_fft",
              "delta_algebra_check", "cross_engine_check",
              "commutation_check", "center_time_check"],
    "dirac": ["DiracOperator.dense_matrix", "DiracOperator.commutator_with_scalar",
              "DiracOperator.temporal_commutator", "elliptic_square",
              "check_temporal_axioms"],
    "steepness": ["is_steep_matrix", "equivalence_scan"],
    "distance": ["variational_distance", "boosted_family_distance"],
    "expressions": ["compile_expression"],
    "lattice": ["gradient", "ScalarField.from_expression",
                "ScalarField.from_callable"],
    "clifford": "*",
    "filtration": "*",
}
COUNTED = {"dirac": ["DiracOperator.apply"]}
HOOKS = {
    "moyal.star_twisted": _twisted,
    "dirac.DiracOperator.dense_matrix": _dense,
    "steepness.is_steep_matrix": _certify,
    "expressions.compile_expression": _compile,
}


def _public_functions(mod):
    return [name for name, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__
            and not name.startswith("_")]


def _install_one(modules, mod, dotted, make):
    owner_name, _, attr = dotted.rpartition(".")
    if owner_name:                      # method: callers look it up on the class
        owner = getattr(mod, owner_name)
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        return
    fn = getattr(mod, attr)
    wrapper = make(fn)
    for other in modules:               # function: every namespace importing it
        for name, obj in list(vars(other).items()):
            if obj is fn:
                setattr(other, name, wrapper)


def install(tracer):
    """Wrap the traced functions of every imported lorentzlab module."""
    import lorentzlab.cli  # noqa: F401  (imports every layer)
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "lorentzlab" or n.startswith("lorentzlab.")]
    for short, names in TRACED.items():
        mod = sys.modules["lorentzlab." + short]
        if names == "*":
            names = _public_functions(mod)
        for dotted in names:
            span_name = "%s.%s" % (short, dotted)
            hook = HOOKS.get(span_name)
            _install_one(modules, mod, dotted,
                         lambda fn, s=span_name, h=hook: tracer.span(s, fn, h))
    for short, names in COUNTED.items():
        mod = sys.modules["lorentzlab." + short]
        for dotted in names:
            counter = "%s.%s_calls" % (short, dotted.rpartition(".")[2])
            _install_one(modules, mod, dotted,
                         lambda fn, c=counter: tracer.counter(c, fn))


# ------------------------------------------------------------ aggregation


def _percentile(values, q):
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def summarize(trace):
    """Per span name: call count, self seconds and call durations."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, self_s, durations = {}, {}, {}
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        durations.setdefault(name, []).append(end - start)
    return calls, self_s, durations


def layer_metrics(trace, artifact_bytes):
    """Every per-layer metric (name -> (value, unit)) from one dumped trace."""
    calls, self_s, durations = summarize(trace)
    counts = trace["counts"]

    def n(name):
        return calls.get(name, 0)

    def s(*names):
        return sum((self_s.get(name, 0.0) for name in names), 0.0)

    def ms(name, q):
        return 1e3 * _percentile(durations.get(name, []), q)

    def prefixed(layer):
        names = [k for k in calls if k.startswith(layer + ".")]
        return sum(calls[k] for k in names), s(*names)

    def ratio(distinct, total):
        return counts.get(distinct, 0) / total if total else 0.0

    tw, sq = "moyal.star_twisted", "moyal.star_quadrature"
    dense = "dirac.DiracOperator.dense_matrix"
    cert, var = "steepness.is_steep_matrix", "distance.variational_distance"
    comp = "expressions.compile_expression"
    clifford_calls, clifford_s = prefixed("clifford")
    filtration_calls, filtration_s = prefixed("filtration")
    return {
        "moyal.star_twisted_calls": (n(tw), "count"),
        "moyal.star_twisted_s": (s(tw), "s"),
        "moyal.star_twisted_p50_ms": (ms(tw, 50), "ms"),
        "moyal.twisted_grid_points": (counts.get("moyal.twisted_grid_points", 0), "count"),
        "moyal.star_quadrature_calls": (n(sq), "count"),
        "moyal.star_quadrature_s": (s(sq), "s"),
        "moyal.basis_values_calls": (n("moyal.basis_values"), "count"),
        "moyal.basis_values_s": (s("moyal.basis_values"), "s"),
        "moyal.phys_fft_s": (s("moyal.phys_fft"), "s"),
        "moyal.delta_s": (s("moyal.delta_algebra_check"), "s"),
        "moyal.cross_engine_s": (s("moyal.cross_engine_check"), "s"),
        "moyal.commutation_s": (s("moyal.commutation_check"), "s"),
        "moyal.center_time_s": (s("moyal.center_time_check"), "s"),
        "dirac.dense_dim": (counts.get("dirac.dense_dim", 0), "count"),
        "dirac.dense_builds": (n(dense), "count"),
        "dirac.apply_calls": (counts.get("dirac.apply_calls", 0), "count"),
        "dirac.dense_matrix_s": (s(dense), "s"),
        "dirac.elliptic_square_s": (s("dirac.elliptic_square"), "s"),
        "dirac.axioms_s": (s("dirac.check_temporal_axioms"), "s"),
        "dirac.symbol_s": (s("dirac.DiracOperator.commutator_with_scalar",
                             "dirac.DiracOperator.temporal_commutator"), "s"),
        "dirac.dense_bytes_computed": (counts.get("dirac.dense_bytes_computed", 0), "bytes"),
        "steepness.certify_calls": (n(cert), "count"),
        "steepness.certify_s": (s(cert), "s"),
        "steepness.certify_p50_ms": (ms(cert, 50), "ms"),
        "steepness.certify_p99_ms": (ms(cert, 99), "ms"),
        "steepness.sites_certified": (counts.get("steepness.sites_certified", 0), "count"),
        "steepness.certify_unique_ratio": (ratio("steepness.certify_distinct", n(cert)), "ratio"),
        "steepness.scan_s": (s("steepness.equivalence_scan"), "s"),
        "distance.variational_calls": (n(var), "count"),
        "distance.variational_s": (s(var), "s"),
        "distance.variational_p50_ms": (ms(var, 50), "ms"),
        "distance.variational_p99_ms": (ms(var, 99), "ms"),
        "distance.boosted_s": (s("distance.boosted_family_distance"), "s"),
        "expressions.compile_calls": (n(comp), "count"),
        "expressions.compile_s": (s(comp), "s"),
        "expressions.compile_unique_ratio": (ratio("expressions.compile_distinct", n(comp)), "ratio"),
        "lattice.gradient_calls": (n("lattice.gradient"), "count"),
        "lattice.gradient_s": (s("lattice.gradient"), "s"),
        "lattice.field_build_s": (s("lattice.ScalarField.from_expression",
                                    "lattice.ScalarField.from_callable"), "s"),
        "clifford.calls": (clifford_calls, "count"),
        "clifford.s": (clifford_s, "s"),
        "filtration.calls": (filtration_calls, "count"),
        "filtration.s": (filtration_s, "s"),
        "cli.validate_s": (s("cli.validate_config"), "s"),
        "cli.write_s": (s("cli.write_json", "cli.write_distance_csv"), "s"),
        "cli.artifact_bytes": (artifact_bytes, "bytes"),
    }
