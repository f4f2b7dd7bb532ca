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


# imported but uncalled: bench/tracing.py patches these module attributes by
# name, so they stay until the tracer stops patching them
TRACER_ONLY_IMPORTS = {
    "engine.rejection_filter_update",
    "expectation.build_rotation_operator",
    "expectation.next_setting",
    "expectation.rejection_filter_update",
    "expectation.run_phase_circuit",
}


def _unused_imports(name: str) -> set[str]:
    tree = ast.parse((Path(alphavqe.__file__).parent / f"{name}.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a name listed in __all__ is re-exported, which is a use
    used.update(getattr(importlib.import_module(f"alphavqe.{name}"), "__all__", ()))
    return {f"{name}.{entry}" for entry in imported - used}


def test_no_module_imports_a_name_it_never_uses():
    unused = set().union(*(_unused_imports(name) for name in MODULES))
    assert unused == TRACER_ONLY_IMPORTS
