"""The public surface: every `__all__` entry resolves, and the package
re-exports only names that its modules list as public."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import alphavqe

MODULES = sorted(info.name for info in pkgutil.iter_modules(alphavqe.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"alphavqe.{name}")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def test_package_imports_only_public_names():
    tree = ast.parse(Path(alphavqe.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    stray = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name not in importlib.import_module(f"alphavqe.{node.module}").__all__
    ]
    assert stray == []
