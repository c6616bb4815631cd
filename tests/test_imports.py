import ast
import os
import subprocess
import sys

import lorentzlab


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


def test_every_module_constant_is_read_in_src():
    # a setting that no library code reads is a leftover, not a setting
    package = os.path.dirname(os.path.abspath(lorentzlab.__file__))
    trees = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                trees[name] = ast.parse(fh.read())
    reads = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
    constants = {(module, target.id) for module, tree in trees.items()
                 for node in tree.body if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)
                 and target.id.isupper()}
    assert constants
    assert sorted(c for c in constants if c[1] not in reads) == []
