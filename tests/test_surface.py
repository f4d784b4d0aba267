"""Every import, private name and method in the package is used, and every ``__all__`` entry exists.

A stand-in for a linter's unused-import, unused-private-name and
undefined-export checks: a deletion that orphans an import, a private
constant or helper, or leaves a name in ``__all__`` behind, fails here.
So does a method that only the tests call.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import graphbargain

MODULES = sorted(Path(graphbargain.__file__).parent.glob("*.py"))
BENCHMARK = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's imports, with their line numbers."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, including those inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used.add(node.value)  # "Graph" in a return annotation, or an __all__ entry
    return used


def top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(imported_names(ast.Module(body=[node], type_ignores=[])))
    return names


def exported_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"{path.name}:{line}: {name}" for name, line in imported_names(tree).items() if name not in used]
    assert not unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    private = {name for name in top_level_names(tree) if name.startswith("_") and not name.startswith("__")}
    assert sorted(private - read) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_defined(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    missing = sorted(set(exported_names(tree)) - top_level_names(tree))
    assert not missing


def test_every_method_is_called_outside_the_tests():
    """Each non-dunder method or property of a package class is read as ``.name`` in the package or the benchmark."""
    assert BENCHMARK
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in [*MODULES, *BENCHMARK]}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unread = [
        f"{path.name}: {cls.name}.{item.name}"
        for path in MODULES
        for cls in trees[path].body
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("__") and item.name not in read
    ]
    assert unread == []


def mentioned_names(node: ast.AST) -> set[str]:
    """Names read under ``node``: as names, attributes, imported names or identifier strings."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            names.add(sub.value)  # a quoted annotation, or an attribute perfbench patches by name
    return names


def test_every_public_name_is_read_outside_the_tests():
    """Each public top-level function, class and constant is read by another package module, by the
    benchmark, or by its own module outside its definition and ``__all__``."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in [*MODULES, *BENCHMARK]}
    unread = []
    for path in MODULES:
        elsewhere = set().union(*(mentioned_names(tree) for other, tree in trees.items() if other != path))
        defined = {node: top_level_names(ast.Module(body=[node], type_ignores=[])) for node in trees[path].body}
        body = [node for node in trees[path].body if not isinstance(node, (ast.Import, ast.ImportFrom))]
        body = [node for node in body if "__all__" not in defined[node]]
        for node in body:
            here = set().union(*(mentioned_names(other) for other in body if other is not node))
            public = sorted(name for name in defined[node] if not name.startswith("_"))
            unread += [f"{path.name}: {name}" for name in public if name not in elsewhere | here]
    assert unread == []


def test_package_root_exports_only_the_version():
    assert graphbargain.__all__ == ["__version__"]
