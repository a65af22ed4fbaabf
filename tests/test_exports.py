"""Export-surface tests: every name a module exports is defined, the package
imports only what it needs, and its sources parse as the oldest supported
Python.
"""

from __future__ import annotations

import ast
import glob
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

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


def test_csv_export_loads_no_third_party_package_but_numpy(tmp_path):
    # A faster float formatter may be installed (orjson is, on some hosts),
    # but the package must not pick it up.  A module counts as third-party
    # when it was loaded from a site-packages directory; numpy itself shows
    # that the probe finds such modules.
    target = os.fspath(tmp_path / "probe.csv")
    probe = (
        "import site, sys, sysconfig; before = set(sys.modules); "
        f"import singsde; singsde.write_csv({target!r}, [('x', [0.5, 1e-5, 3.0])], {{'k': 1}}); "
        "roots = tuple(site.getsitepackages() + [sysconfig.get_paths()[key] for key in "
        "('purelib', 'platlib')]); "
        "found = {name.partition('.')[0] for name in set(sys.modules) - before "
        "if (getattr(sys.modules[name], '__file__', None) or '').startswith(roots)}; "
        "print(sorted(found - {'singsde'}))"
    )
    assert _fresh_interpreter(probe) == "['numpy']"


# The oldest interpreter pyproject.toml admits (requires-python >= 3.10).
OLDEST_PYTHON = (3, 10)


def _sources() -> list[str]:
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    package_dir = os.path.dirname(os.path.abspath(singsde.__file__))
    return sorted(
        glob.glob(os.path.join(package_dir, "**", "*.py"), recursive=True)
        + glob.glob(os.path.join(tests_dir, "**", "*.py"), recursive=True)
    )


def test_sources_parse_as_the_oldest_supported_python():
    # Grammar only: a standard-library name added after 3.10 is not caught.
    sources = _sources()
    assert any(path.endswith("harness.py") for path in sources)
    for path in sources:
        with open(path, encoding="utf-8") as handle:
            ast.parse(handle.read(), filename=path, feature_version=OLDEST_PYTHON)


def test_the_grammar_check_rejects_newer_syntax():
    # except* (3.11) is the kind of syntax the check above must catch.
    planted = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(planted)
    with pytest.raises(SyntaxError):
        ast.parse(planted, feature_version=OLDEST_PYTHON)
