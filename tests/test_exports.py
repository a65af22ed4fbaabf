"""Export-surface test: every name a module exports is defined."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys

import singsde


def test_every_exported_name_resolves():
    modules = [singsde] + [
        importlib.import_module(f"singsde.{info.name}")
        for info in pkgutil.iter_modules(singsde.__path__)
    ]
    for module in modules:
        assert hasattr(module, "__all__"), f"{module.__name__} declares no __all__"
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__} exports undefined names {missing}"
        assert len(set(module.__all__)) == len(module.__all__), f"{module.__name__} repeats a name"


def _fresh_interpreter(probe: str) -> str:
    """Standard output of ``probe`` run by a new interpreter that imports this singsde."""

    source_root = os.path.dirname(os.path.dirname(singsde.__file__))
    paths = [source_root, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path for path in paths if path))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_importing_the_package_leaves_the_cli_unloaded():
    # A fresh interpreter: this test process may already have loaded singsde.cli.
    assert _fresh_interpreter("import sys, singsde; print('singsde.cli' in sys.modules)") == "False"


def test_refinement_runs_without_scipy():
    # numpy is the package's only dependency: importing scipy.linalg would
    # cost every campaign process about 0.2 s and 20 MB.
    probe = (
        "import sys, singsde as s; "
        "path = s.generate_fbm(s.TimeGrid(1.0, 2**8), s.HurstParam(0.25), s.SeedRecord(3, 0)); "
        "s.refine_fbm(path); print('scipy' in sys.modules)"
    )
    assert _fresh_interpreter(probe) == "False"
