"""Self-tests of the benchmark (not part of the library's test suite).

    python3 -m pytest -q perfbench/check_counts.py

Takes about 2 min on 2 cores: two traced runs of the ``report`` workload,
which exercises every layer, must report the same exact counts.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

EXACT = ("dirac.dense_dim", "dirac.dense_builds", "moyal.star_twisted_calls",
         "steepness.certify_calls", "expressions.compile_calls")


def bench(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_exact_counts_repeat_between_traced_runs():
    first, second = (result(bench("--workload", "report", "--seed", "11",
                                  "--seconds", "1", "--trace", "1"))
                     for _ in range(2))
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
    for name in EXACT:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        assert a > 0 and a == b, (name, a, b)


def test_self_time_subtracts_children():
    trace = {"counts": {}, "spans": [["outer", 0.0, 10.0, -1],
                                     ["inner", 1.0, 4.0, 0],
                                     ["inner", 5.0, 6.0, 0],
                                     ["leaf", 2.0, 3.0, 1]]}
    calls, self_s, durations = spans.summarize(trace)
    assert calls == {"outer": 1, "inner": 2, "leaf": 1}
    assert self_s == pytest.approx({"outer": 6.0, "inner": 3.0, "leaf": 1.0})
    assert sorted(durations["inner"]) == [1.0, 3.0]


def test_refuses_without_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "moyal_quick", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
