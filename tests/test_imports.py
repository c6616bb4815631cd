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
