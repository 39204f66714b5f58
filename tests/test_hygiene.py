"""Static checks on the package source: no module imports a name it
never uses, every exported name exists, and every module-level private
name is read somewhere in the package (code only tests call belongs
in the tests)."""

import ast
import importlib
from pathlib import Path

import pytest

import spineflow

SOURCES = sorted(Path(spineflow.__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, unquoted annotations included."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(source):
    tree = ast.parse(source.read_text())
    unused = imported_names(tree) - used_names(tree) - exported_names(tree)
    assert not unused, f"{source.name} imports unused {sorted(unused)}"


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_every_export_resolves(source):
    name = "spineflow" if source.stem == "__init__" else f"spineflow.{source.stem}"
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing {missing}"


def private_names(tree: ast.Module) -> set[str]:
    """The module-level names bound in ``tree`` with one leading
    underscore: functions, classes and assignment targets."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def read_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere in the module, as a bare name or as an
    attribute (``module._name``)."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def test_every_private_name_is_read_in_the_package():
    trees = {source.name: ast.parse(source.read_text()) for source in SOURCES}
    read = set().union(*map(read_names, trees.values()))
    unread = sorted(f"{name[:-3]}.{private}" for name, tree in trees.items()
                    for private in private_names(tree) - read)
    assert not unread, f"private names read by no package code: {unread}"
