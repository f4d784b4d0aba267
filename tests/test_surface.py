"""Every import, private name and method in the package is used, and every ``__all__`` entry exists
and is named in the README.

A stand-in for a linter's unused-import, unused-private-name and
undefined-export checks: a deletion that orphans an import, a private
constant or helper, or leaves a name in ``__all__`` behind, fails here.
So does a method that only the tests call.
"""

from __future__ import annotations

import ast
import re
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


def test_every_export_is_named_in_the_readme():
    """Each ``__all__`` entry appears in README.md as code: in a backtick span or a fenced block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`]+`", readme, flags=re.S)
    named = set(re.findall(r"\w+", " ".join(code)))
    exports = {path: exported_names(ast.parse(path.read_text(encoding="utf-8"))) for path in MODULES}
    missing = [f"{path.name}: {name}" for path, names in exports.items() for name in names if name not in named]
    assert missing == []


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


FILE_CALLS = {
    "open", "read_text", "write_text", "read_bytes", "write_bytes", "mkdir", "unlink", "rename", "touch",
}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "dataset.py"], ids=lambda p: p.name)
def test_only_dataset_opens_files(path):
    """Every file the package reads or writes, and every directory it makes, goes through ``graphbargain.dataset``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)) in FILE_CALLS
    ]
    assert calls == []


def test_package_root_exports_only_the_version():
    assert graphbargain.__all__ == ["__version__"]


def splits_text(node: ast.AST, names: set[str]) -> bool:
    """Whether ``node`` holds a ``.split()`` call on text, such as ``data.split()``, or reads one of ``names``;
    ``np.split`` splits arrays."""
    return any(
        (isinstance(sub, ast.Name) and sub.id in names)
        or (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "split"
            and not (isinstance(sub.func.value, ast.Name) and sub.func.value.id == "np")
        )
        for sub in ast.walk(node)
    )


def test_one_numpy_parse_reads_every_number_table():
    """Edge lists, model bodies and manifests go through the one np.loadtxt call, in ``dataset.py``: no module
    parses text with another loadtxt or a genfromtxt, and no np.array call converts split tokens, directly or
    through a name bound to them."""
    parses, arrays = [], []
    for path in MODULES:
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        tokens: set[str] = set()
        for node in nodes:
            if isinstance(node, ast.Assign) and splits_text(node.value, set()):
                tokens.update(target.id for target in node.targets if isinstance(target, ast.Name))
        for node in nodes:
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr in ("loadtxt", "genfromtxt"):
                parses.append(f"{path.name}: {node.func.attr}")
            elif node.func.attr == "array" and any(splits_text(arg, tokens) for arg in node.args):
                arrays.append(f"{path.name}:{node.lineno}")
    assert parses == ["dataset.py: loadtxt"]
    assert arrays == []


def leaves_unset(call: ast.Call, index: int | None, name: str) -> bool:
    """Whether ``call`` surely leaves unset the parameter ``name``, at positional ``index`` (None if keyword-only)."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(kw.arg is None for kw in call.keywords):
        return False
    given_by_position = index is not None and index < len(call.args)
    return not given_by_position and all(kw.arg != name for kw in call.keywords)


def test_every_keyword_default_is_left_unset_outside_the_tests():
    """Each default of a package function is used by some call in the package or the benchmark; an argument
    that every such call passes is a required one."""
    calls: dict[str, list[ast.Call]] = {}
    for path in [*MODULES, *BENCHMARK]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    always_passed = []
    for path in MODULES:
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            positional = [*func.args.posonlyargs, *func.args.args]
            defaulted = [(k, arg.arg) for k, arg in enumerate(positional)][len(positional) - len(func.args.defaults):]
            keyword_only = zip(func.args.kwonlyargs, func.args.kw_defaults)
            defaulted += [(None, arg.arg) for arg, default in keyword_only if default is not None]
            always_passed += [
                f"{path.name}: {func.name}({name})"
                for index, name in defaulted
                if not any(leaves_unset(call, index, name) for call in calls.get(func.name, []))
            ]
    assert always_passed == []
