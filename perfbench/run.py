"""lorentzlab benchmark: one workload, closed loop, one CLI process at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).
Every iteration is a fresh ``lorentzlab.cli.main`` process started by
``child.py``; the next one starts only after the previous one exits.  The
BLAS thread count is fixed for every child and recorded.

``--trace 0`` repeats the command while another iteration still fits in
``--seconds`` (at least one), then starts set-up-only processes until there
are ``SETUP_SAMPLES`` set-up times, and reports the end-to-end metrics:
medians over the passing iterations.  ``--trace 1`` runs the command
untraced, then with the spans of ``spans.py`` installed, then untraced
again, and reports the per-layer metrics of the traced run plus the tracing
overhead.

Every iteration is checked: exit code 0, no ``FAIL`` line, artifacts whose
content passes the workload's own check, and artifacts byte-identical to
every other run of the same source, workload and seed.  A failed iteration
counts in ``failed`` and is never timed.  The last line of stdout is the
result object; see README.md for the workloads and metrics.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
BLAS_THREADS_MAX = 2
RUN_LIMIT_S = 170            # whole run, so the process exits within 180 s
DISTANCE_PAIRS = 2500
REPORT_PAIRS = 10

# ------------------------------------------------------------ artifact checks


def _load(out, name):
    with open(out / name) as fh:
        return json.load(fh)


def _check_distance_rows(out, pairs, candidates):
    """distance.csv: one row per pair; oracle recomputed from (dt, r)."""
    with open(out / "distance.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != pairs:
        return "distance.csv has %d rows, expected %d" % (len(rows), pairs)
    for row in rows:
        dt, r = float(row["dt"]), float(row["r"])
        oracle = math.sqrt(max(dt * dt - r * r, 0.0)) if dt >= r else 0.0
        if abs(float(row["oracle"]) - oracle) > 1e-12 * max(1.0, oracle):
            return "pair %s: oracle %s, expected %r" % (row["pair"], row["oracle"], oracle)
        if abs(float(row["boosted"]) - oracle) > 1e-6:
            return "pair %s: boosted %s misses oracle %r" % (row["pair"], row["boosted"], oracle)
        if float(row["variational"]) < oracle - 1e-9:
            return "pair %s: variational %s below oracle %r" % (row["pair"], row["variational"], oracle)
        if row["achieving"] not in candidates:
            return "pair %s: achieving candidate %r not in pool" % (row["pair"], row["achieving"])
    return None


def check_moyal(out, seed):
    d = _load(out, "moyal.json")
    if d["passed"] is not True or d["theta"] != 0.5:
        return "moyal.json: passed=%r theta=%r" % (d["passed"], d["theta"])
    return None


def check_verify(out, seed):
    d = _load(out, "verify.json")
    want = {"dimension": 4, "points": 5, "boundary": "periodic", "u": "1", "seed": seed}
    if d["passed"] is not True or d["config"] != want:
        return "verify.json: passed=%r config=%r" % (d["passed"], d["config"])
    if d["axioms"]["elliptic_min_eigenvalue"] is None:
        return "verify.json: elliptic check did not run"
    if not all(c["passed"] for c in d["clifford"].values()):
        return "verify.json: a Clifford check failed"
    return None


def check_distance(out, seed):
    d = _load(out, "distance.json")
    if (d["passed"] is not True or d["pairs"] != DISTANCE_PAIRS
            or d["dimension"] != 2 or d["seed"] != seed or len(d["candidates"]) != 4):
        return "distance.json: unexpected header %r" % (
            {k: v for k, v in d.items() if k != "candidates"},)
    return _check_distance_rows(out, DISTANCE_PAIRS, d["candidates"])


def check_report(out, seed):
    d = _load(out, "report.json")
    parts = ("verify", "distance", "moyal", "filtration")
    if d["passed"] is not True or not all(d[p]["passed"] is True for p in parts):
        return "report.json: passed=%r" % ({p: d[p]["passed"] for p in parts},)
    if d["steepness_equivalence"]["disagreements"]:
        return "report.json: steepness routes disagree"
    if d["verify"]["config"]["points"] != 12 or d["distance"]["pairs"] != REPORT_PAIRS:
        return "report.json: unexpected config"
    return _check_distance_rows(out, REPORT_PAIRS, d["distance"]["candidates"])


# name -> CLI arguments (before --out/--seed), artifacts, seed use, check
WORKLOADS = {
    "moyal_quick": (["moyal", "--quick"], ["moyal.json"], False, check_moyal),
    "verify_4d": (["verify", "--dimension", "4", "--points", "5"],
                  ["verify.json"], True, check_verify),
    "distance_pairs": (["distance", "--dimension", "2", "--points", "16",
                        "--pairs", str(DISTANCE_PAIRS)],
                       ["distance.json", "distance.csv"], True, check_distance),
    "report": (["report", "--points", "12", "--pairs", str(REPORT_PAIRS)],
               ["report.json", "distance.csv"], True, check_report),
}

# ------------------------------------------------------------------ running


def nproc():
    return len(os.sched_getaffinity(0))


def source_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Session:
    """Runs and checks the iterations of one benchmark invocation."""

    def __init__(self, root, workload, seed, threads):
        self.root = root
        self.seed = seed
        self.args, self.artifacts, self.seed_used, self.check = WORKLOADS[workload]
        self.label = "%s-seed%d" % (workload, seed)
        self.state = root / ".perfbench"
        self.results = self.state / "results"
        self.results.mkdir(parents=True, exist_ok=True)
        self.dir = self.state / ("%s-%d" % (self.label, os.getpid()))
        self.dir.mkdir()
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(threads)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        self.env.pop("LORENTZLAB_OUT", None)
        self.hash_key = "%s/%s/%s/blas%d" % (source_digest(root), workload,
                                             seed if self.seed_used else "any", threads)
        self.hashes = None
        self.started = time.monotonic()
        self.count = 0
        self.failures = []

    def remaining(self):
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def iterate(self, mode):
        """One child process; returns its measurements, or None if it failed."""
        self.count += 1
        tag = "%s%d" % (mode, self.count)
        out = self.dir / tag
        timing = self.dir / (tag + ".json")
        cmd = [sys.executable, str(HERE / "child.py"), str(timing), mode, "--",
               *self.args, "--out", str(out), "--seed", str(self.seed)]
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return self.fail(tag, "timed out")
        if proc.returncode != 0:
            return self.fail(tag, "exit code %d: %s" % (proc.returncode, stderr.strip()[-300:]))
        with open(timing) as fh:
            marks = json.load(fh)
        if not Path(marks["module"]).resolve().is_relative_to(self.root / "src"):
            return self.fail(tag, "imported lorentzlab from %s" % marks["module"])
        result = {"setup_s": marks["setup_end"] - spawn,
                  "wall_s": marks["end"] - marks["setup_end"],
                  "peak_rss_mb": marks["maxrss_kb"] / 1024.0}
        if mode == "setup":
            return result
        lines = stdout.splitlines()
        if any(line.startswith("FAIL") for line in lines) or \
                not any(line.startswith("PASS") for line in lines):
            return self.fail(tag, "verdict lines: %r" % lines)
        missing = [a for a in self.artifacts if not (out / a).is_file()]
        if missing:
            return self.fail(tag, "missing artifacts %s" % missing)
        problem = self.check(out, self.seed)
        if problem:
            return self.fail(tag, problem)
        problem = self.compare_hashes(out)
        if problem:
            return self.fail(tag, problem)
        result["artifact_bytes"] = sum((out / a).stat().st_size for a in self.artifacts)
        if mode == "trace":
            spans_path = self.results / (self.label + ".spans.json")
            os.replace(str(timing) + ".trace", spans_path)
            result["trace"] = json.loads(spans_path.read_text())
        return result

    def fail(self, tag, reason):
        self.failures.append("%s: %s" % (tag, reason))
        return None

    def compare_hashes(self, out):
        """Artifacts must match this session's and every earlier session's."""
        got = {a: hashlib.sha256((out / a).read_bytes()).hexdigest()
               for a in self.artifacts}
        if self.hashes is None:
            store_path = self.state / "artifact_hashes.json"
            store = json.loads(store_path.read_text()) if store_path.is_file() else {}
            self.hashes = store.setdefault(self.hash_key, got)
            tmp = store_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
            os.replace(tmp, store_path)
        if got != self.hashes:
            return "artifacts differ from an earlier run: %r vs %r" % (got, self.hashes)
        return None


def measure(session, seconds):
    """Closed loop of untraced iterations, then set-up-only processes."""
    runs, setups = [], []
    start = time.monotonic()
    while True:
        res = session.iterate("run")
        if res is not None:
            runs.append(res)
            setups.append(res["setup_s"])
        # stop unless one more iteration of the mean length still fits
        projected = (time.monotonic() - start) * (1 + 1 / session.count)
        if res is None or projected > seconds or projected > session.remaining() - 20:
            break
    while runs and len(setups) < SETUP_SAMPLES and session.remaining() > 20:
        res = session.iterate("setup")
        if res is None:
            break
        setups.append(res["setup_s"])
    if not runs:
        return {}
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }


def measure_traced(session):
    """Untraced, traced, untraced: per-layer metrics of the traced iteration.

    The overhead is the traced wall_s minus the mean of the untraced ones on
    either side, which cancels a linear drift in machine speed.
    """
    before = session.iterate("run")
    traced = session.iterate("trace") if before else None
    after = session.iterate("run") if traced else None
    if after is None:
        return {}
    metrics = spans.layer_metrics(traced["trace"], traced["artifact_bytes"])
    metrics["trace_overhead_s"] = (
        traced["wall_s"] - (before["wall_s"] + after["wall_s"]) / 2, "s")
    return metrics


def environment(workload, seed, threads):
    import platform
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": workload, "seed": seed, "seed_used": WORKLOADS[workload][2],
            "nproc": nproc(), "blas": blas["name"], "blas_version": blas["version"],
            "blas_threads": threads,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")

    root = HERE.parent
    if not (root / "src" / "lorentzlab" / "cli.py").is_file():
        print("no lorentzlab source under %s/src; run from a checkout" % root,
              file=sys.stderr)
        return 2

    threads = min(BLAS_THREADS_MAX, nproc())
    session = Session(root, args.workload, args.seed, threads)
    try:
        metrics = measure_traced(session) if args.trace else measure(session, args.seconds)
    finally:
        shutil.rmtree(session.dir, ignore_errors=True)
    env = environment(args.workload, args.seed, threads)
    failed = len(session.failures)
    attempted = session.count
    record = {"correct": bool(metrics) and failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    for reason in session.failures:
        print("FAILED %s" % reason, file=sys.stderr)
    print("env %s" % json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print("%-36s %.6g %s" % (name, value, unit))
    print("%-36s %.6g ratio (%d of %d runs failed)"
          % ("check_fail_ratio", failed / max(attempted, 1), failed, attempted))
    (session.results / ("%s-trace%d.json" % (session.label, args.trace))).write_text(
        json.dumps(dict(record, env=env, failures=session.failures), indent=1, sort_keys=True))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
