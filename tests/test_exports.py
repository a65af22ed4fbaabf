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


def _unread_imports(source: str) -> list[str]:
    """Names a module imports and never reads; a name listed in ``__all__`` counts as read."""

    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_the_package_imports_no_name_it_never_reads():
    package_dir = os.path.dirname(os.path.abspath(singsde.__file__))
    paths = sorted(glob.glob(os.path.join(package_dir, "**", "*.py"), recursive=True))
    assert any(path.endswith("fbm.py") for path in paths)
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            unread = _unread_imports(handle.read())
        assert not unread, f"{os.path.basename(path)} imports names it never reads: {unread}"


def test_the_import_check_finds_an_unread_name():
    planted = (
        "from __future__ import annotations\n"
        "from dataclasses import dataclass, field\n"
        "import os.path\n"
        "__all__ = ['Point']\n"
        "@dataclass\nclass Point:\n    x: float\n"
    )
    assert _unread_imports(planted) == ["field (line 2)", "os (line 3)"]
    assert _unread_imports(planted.replace("x: float", "x: float = field(default=os.sep)")) == []


def _unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants that no module reads.

    ``sources`` maps a module name to its source.  A name counts as read
    where any module loads it, bare or as an attribute.  Dunder names such
    as ``__all__`` are not private definitions.
    """

    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [
                    n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)
                ]
            else:
                continue
            unread += [
                f"{module}.{name} (line {node.lineno})"
                for name in names
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    return unread


def test_the_package_defines_no_private_name_it_never_reads():
    package_dir = os.path.dirname(os.path.abspath(singsde.__file__))
    sources = {}
    for path in sorted(glob.glob(os.path.join(package_dir, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as handle:
            sources[os.path.relpath(path, package_dir)[: -len(".py")]] = handle.read()
    assert "harness" in sources
    unread = _unread_private_definitions(sources)
    assert not unread, f"private definitions that no module reads: {unread}"


def test_the_definition_check_finds_an_unread_private_name():
    planted = {
        "a": (
            "__all__ = ['run']\n"
            "_LIMIT = 3\n"
            "_SPARE, _PAIR = 1, 2\n"
            "_NOTE: str = 'x'\n"
            "def _helper():\n    return _LIMIT\n"
            "class _Box:\n    pass\n"
            "def run():\n    return _helper()\n"
        ),
        "b": "from . import a\n",
    }
    assert _unread_private_definitions(planted) == [
        "a._SPARE (line 3)",
        "a._PAIR (line 3)",
        "a._NOTE (line 4)",
        "a._Box (line 7)",
    ]
    planted["b"] += "print(a._Box, a._SPARE, a._PAIR, a._NOTE)\n"
    assert _unread_private_definitions(planted) == []


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
