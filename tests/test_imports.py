import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import lorentzlab

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"

# public functions and methods that no library code calls and the benchmark
# does not name, each with the reason it stays
TEST_ONLY = {
    "moyal.project": "the Moyal-triple item projects its derivatives back",
    "moyal.synthesize": "the Moyal-triple item's ladder-derivative oracle",
}

# public functions and methods that no library code calls but a span of the
# benchmark (perfbench/spans.py) names, each with the reason it stays
SPAN_ONLY = {
    "dirac.DiracOperator.commutator_with_scalar":
        "the symbol of [D, f] on D's stored lapse, spanned as part of "
        "dirac.symbol_s; the tests hold it against D(f psi) - f D(psi)",
    "moyal.basis_values":
        "one Landau basis function, spanned as moyal.basis_values; the "
        "tests hold basis_stack equal to it entry for entry",
}

# bare names that several public functions or methods define: a read of the
# name in the package counts as a call of each only when it is listed here,
# with the reason every definition has a caller
SHARED_NAMES = {}


def _package_path():
    """PYTHONPATH for a child process that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lorentzlab.__file__)))
    return os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


def test_import_loads_no_deferred_scipy_subpackage():
    # the package runs on numpy alone: no module of it imports scipy, at
    # module level or in a function body (test_src_never_imports_scipy),
    # and only the tests use scipy, as an oracle
    code = ("import sys, lorentzlab, lorentzlab.cli; "
            "print(' '.join(sorted(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=_package_path()))
    loaded = set(done.stdout.split())
    assert "lorentzlab.cli" in loaded and "numpy" in loaded
    assert sorted(name for name in loaded if name.split(".")[0] == "scipy") == []


def test_import_loads_every_submodule():
    # the package itself defines only __version__: each public name has one
    # import path, through the submodule that `import lorentzlab` loads
    submodules = {"checks", "clifford", "dirac", "distance", "expressions",
                  "filtration", "lattice", "moyal", "steepness"}
    for name in submodules:
        assert getattr(lorentzlab, name).__name__ == "lorentzlab." + name
    public = {name for name in vars(lorentzlab) if not name.startswith("_")}
    assert submodules <= public <= submodules | {"cli"}
    assert lorentzlab.__version__ == "0.1.0"


# makes every later scipy import in the process raise ImportError
REFUSE_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is blocked: " + name)
        return None

sys.meta_path.insert(0, RefuseScipy())
"""

# runs the CLI on the arguments after -c
CLI = "import sys; from lorentzlab import cli; sys.exit(cli.main(sys.argv[1:]))"


def _run_cli(code, argv, out):
    out.mkdir()
    done = subprocess.run([sys.executable, "-c", code, *argv, "--out",
                           str(out)], capture_output=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=_package_path()))
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return done, files


def test_scipy_block_refuses_scipy():
    done = subprocess.run([sys.executable, "-c",
                           REFUSE_SCIPY + "import scipy.integrate"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "scipy is blocked: scipy" in done.stderr


@pytest.mark.parametrize("argv", [
    ["verify", "--dimension", "4", "--points", "5"],
    ["report", "--points", "12", "--pairs", "10"],
], ids=["verify_4d", "report"])
def test_cli_runs_without_scipy(argv, tmp_path):
    # both benchmark configurations run with scipy unimportable and write
    # the artifacts and lines of a normal run, byte for byte
    blocked, blocked_files = _run_cli(REFUSE_SCIPY + CLI, argv,
                                      tmp_path / "blocked")
    normal, normal_files = _run_cli(CLI, argv, tmp_path / "normal")
    assert blocked.returncode == 0, blocked.stderr
    assert normal.returncode == 0, normal.stderr
    assert blocked_files and blocked_files == normal_files
    assert blocked.stdout == normal.stdout


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
    """Every name and attribute the package's code reads, except a read
    inside the body of a function of that name: calling itself does not
    give a function a caller."""
    reads = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.update({node.id} - inside)
        elif isinstance(node, ast.Attribute):
            reads.update({node.attr} - inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)
    for tree in trees.values():
        visit(tree, frozenset())
    return reads


def test_src_never_imports_scipy():
    # every import statement, module level or deferred into a function
    trees = _src_trees()
    imported = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [(module, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append((module, node.module))
    assert any(name == "numpy" for _, name in imported)
    assert [(module, name) for module, name in imported
            if name.split(".")[0] == "scipy"] == []


def test_src_never_counts_references():
    # whether an array may be written cannot rest on sys.getrefcount: an
    # interpreter that borrows references on local loads (CPython 3.14)
    # reads the count low, so an array a caller kept would look unshared
    trees = _src_trees()
    imported = {alias.name for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "getrefcount" not in _loaded_names(trees) | imported


ARTIFACT_SUFFIXES = {"json", "csv"}      # `distance.json` names a file


def _package_roots():
    """Each module of the package, the package itself and each class the
    package defines, by the name a README token starts with."""
    roots = {"lorentzlab": lorentzlab}
    for module in _src_trees():
        mod = importlib.import_module("lorentzlab." + module)
        roots.setdefault(module, mod)
        for name, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                roots[name] = obj
    return roots


def test_every_dotted_readme_name_resolves():
    # a backticked README token that is exactly a dotted name rooted at the
    # package must name something that exists
    roots = _package_roots()
    tokens = {token for token in re.findall(r"`([^`\n]+)`",
                                            (ROOT / "README.md").read_text())
              if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", token)
              and token.split(".")[0] in roots
              and token.rpartition(".")[2] not in ARTIFACT_SUFFIXES}
    assert len(tokens) >= 25

    def resolves(token):
        root, *attrs = token.split(".")
        obj = roots[root]
        for attr in attrs:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True

    assert sorted(t for t in tokens if not resolves(t)) == []


def _requirement_names(requirements):
    return sorted(re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower()
                  for req in requirements)


def test_runtime_dependency_is_numpy_only():
    # scipy is an oracle of the tests, so it sits in the test extra
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert _requirement_names(project["dependencies"]) == ["numpy"]
    test_extra = project["optional-dependencies"]["test"]
    assert _requirement_names(test_extra) == ["pytest", "scipy"]


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
    # a public function that only tests call is either an oracle, waits for
    # the roadmap item that adopts it, or is timed by a benchmark span;
    # anything else is a leftover
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
    assert set(SPAN_ONLY) <= set(public) & traced
    shared = {name for name, count in Counter(public.values()).items()
              if count > 1}
    assert set(SHARED_NAMES) <= shared
    called = reads - (shared - set(SHARED_NAMES))
    unused = sorted(dotted for dotted, name in public.items()
                    if name not in called)
    assert unused == sorted({**TEST_ONLY, **SPAN_ONLY})
