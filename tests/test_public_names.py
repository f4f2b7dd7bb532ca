"""The public surface: every `__all__` entry resolves, and the package
re-exports only names that its modules list as public."""

import ast
import importlib
import pkgutil
from collections import Counter
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


def _private_definitions(tree: ast.Module):
    """(name, node) for each module-level private function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if name.startswith("_") and not name.startswith("__"))


def _references(node: ast.AST):
    """Names read as a bare name or as an attribute anywhere under node."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def test_every_private_definition_is_used_by_the_package():
    # a docstring or comment naming a helper is not a use: only code that
    # reads the name, in any module of the package, counts
    trees = [ast.parse((Path(alphavqe.__file__).parent / f"{name}.py").read_text(encoding="utf-8")) for name in MODULES]
    total = Counter(name for tree in trees for name in _references(tree))
    unused = [
        name
        for tree in trees
        for name, node in _private_definitions(tree)
        if total[name] == Counter(_references(node))[name]
    ]
    assert unused == []
