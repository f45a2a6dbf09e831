"""Every exported name resolves, so moved or deleted surface leaves no stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import isaacslab

MODULES = sorted(info.name for info in pkgutil.iter_modules(isaacslab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"isaacslab.{name}")
    exported = mod.__all__
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    assert [n for n in exported if not hasattr(mod, n)] == []


def test_package_reexports_resolve():
    # each `from .module import name` in the package names an entry of that
    # module's __all__, and the package attribute is that very object
    tree = ast.parse(Path(isaacslab.__file__).read_text(encoding="utf-8"))
    imports = [n for n in tree.body if isinstance(n, ast.ImportFrom) and n.level == 1]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"isaacslab.{node.module}")
        for alias in node.names:
            assert alias.name in mod.__all__, f"{node.module}.{alias.name}"
            assert getattr(isaacslab, alias.asname or alias.name) is getattr(mod, alias.name)
