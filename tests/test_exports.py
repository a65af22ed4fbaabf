"""Export-surface test: every name a module exports is defined."""

from __future__ import annotations

import importlib
import pkgutil

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
