import ast
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import lorentzlab

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# public functions and methods that no library code calls and the benchmark
# does not name, each with the reason it stays
TEST_ONLY = {
    "moyal.project": "the Moyal-triple item projects its derivatives back",
    "moyal.synthesize": "the Moyal-triple item's ladder-derivative oracle",
    "steepness.is_steep_scalar":
        "the doubler-free certificate item feeds it upwind gradients",
    "distance.conformal_time_distance":
        "the non-flat lapse item's tau oracle",
}

# bare names that several public functions or methods define: a read of the
# name in the package counts as a call of each only when it is listed here,
# with the reason every definition has a caller
SHARED_NAMES = {
    "max_abs": "clifford.max_abs reduces the Clifford residuals and "
               "StencilOperator.max_abs the axiom suite's",
}


def test_import_loads_no_deferred_scipy_subpackage():
    # the package runs on numpy alone: scipy.integrate is imported by
    # conformal_time_distance when it is first called, and only the tests
    # use scipy otherwise, as an oracle
    src = os.path.dirname(os.path.dirname(os.path.abspath(lorentzlab.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, lorentzlab, lorentzlab.cli; "
            "print(' '.join(sorted(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    loaded = set(done.stdout.split())
    assert "lorentzlab.cli" in loaded and "numpy" in loaded
    assert sorted(name for name in loaded if name.split(".")[0] == "scipy") == []


def test_all_lists_exactly_the_public_imports():
    # every exported name resolves, and every public name __init__ imports
    # is exported
    for name in lorentzlab.__all__:
        assert hasattr(lorentzlab, name), name
    with open(lorentzlab.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert public <= set(lorentzlab.__all__)
    assert len(lorentzlab.__all__) == len(set(lorentzlab.__all__))


def _src_trees():
    """Each module of the package, by name, parsed."""
    package = os.path.dirname(os.path.abspath(lorentzlab.__file__))
    trees = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                trees[name[:-3]] = ast.parse(fh.read())
    return trees


def _loaded_names(trees):
    """Every name and attribute the package's code reads."""
    reads = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
    return reads


def test_every_module_constant_is_read_in_src():
    # a setting that no library code reads is a leftover, not a setting
    trees = _src_trees()
    reads = _loaded_names(trees)
    constants = {(module, target.id) for module, tree in trees.items()
                 for node in tree.body if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)
                 and target.id.isupper()}
    assert constants
    assert sorted(c for c in constants if c[1] not in reads) == []


def test_every_public_function_has_a_caller_or_a_reason():
    # a public function that only tests call is either an oracle or waits
    # for the roadmap item that adopts it; anything else is a leftover
    trees = _src_trees()
    reads = _loaded_names(trees)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    traced = {"%s.%s" % (module, name)
              for table in (spans.TRACED, spans.COUNTED)
              for module, names in table.items() if names != "*"
              for name in names}
    public = {}
    for module, tree in trees.items():
        for node in tree.body:
            members = [("", node)]
            if isinstance(node, ast.ClassDef):
                members = [(node.name + ".", item) for item in node.body]
            for owner, item in members:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    public[module + "." + owner + item.name] = item.name
    assert set(TEST_ONLY) <= set(public)
    shared = {name for name, count in Counter(public.values()).items()
              if count > 1}
    assert set(SHARED_NAMES) <= shared
    called = reads - (shared - set(SHARED_NAMES))
    unused = sorted(dotted for dotted, name in public.items()
                    if name not in called and dotted not in traced)
    assert unused == sorted(TEST_ONLY)
