"""The benchmark's trace wrappers name library functions; they must exist.

`perfbench/spans.py` wraps functions by dotted name and feeds some of them
to hooks that read their leading arguments.  A rename or signature change
in the library would leave the benchmark tracing nothing.  This module only
reads `perfbench/`.
"""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(dotted):
    short, _, rest = dotted.partition(".")
    obj = importlib.import_module("lorentzlab." + short)
    for attr in rest.split("."):
        obj = getattr(obj, attr)
    return obj


def _positional(fn):
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]


def test_every_traced_name_resolves():
    spans = _spans()
    for table in (spans.TRACED, spans.COUNTED):
        for short, names in table.items():
            if names == "*":
                assert importlib.import_module("lorentzlab." + short)
                continue
            for name in names:
                assert callable(_resolve("%s.%s" % (short, name))), name


def test_hooks_read_arguments_the_functions_take():
    # a hook is called as hook(tracer, *args) with the traced call's args
    for dotted, hook in _spans().HOOKS.items():
        takes = _positional(_resolve(dotted))
        reads = _positional(hook)[1:]
        assert len(reads) <= len(takes), dotted
        for want, have in zip(reads, takes):
            assert have in (want, "self"), (dotted, want, have)


def test_trace_mode_installs_in_a_fresh_process():
    # install imports lorentzlab.cli and then looks up every traced layer in
    # sys.modules, so the CLI must import each layer when it is imported
    src = Path(importlib.util.find_spec("lorentzlab").origin).parents[1]
    path = os.pathsep.join(filter(None, [str(SPANS.parent), str(src),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
