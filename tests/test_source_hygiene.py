"""What deletions leave behind in ``src/shiftcache``, found with ``ast``.

No linter is part of the toolchain, so these two checks stand in for the
ones that matter after code is removed: a module that imports a name it
never uses, and a private module-level name (``_x``) that its module never
references. The package's ``__init__`` imports to re-export, so its
imports are exempt from the first check. A third check refuses any call
of ``id()``: a memo keyed on an object's id once broke two golden digests,
because CPython reuses the id of an object that has been freed.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "shiftcache").glob("*.py"))
IMPORTING = [path for path in MODULES if path.name != "__init__.py"]


def loaded_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, anywhere in it."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def imported_names(tree: ast.AST) -> dict[str, int]:
    """name -> line of every name bound by an import, anywhere in the
    module, except ``from __future__`` imports."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """name -> line of every private (``_x``, not dunder) name that a
    module-level def, class or assignment binds."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [t.id for target in targets for t in ast.walk(target)
                     if isinstance(t, ast.Name)]
        else:
            continue
        for name in bound:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", IMPORTING, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = parse(path)
    used = loaded_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses (name: line): {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_private_name(path):
    tree = parse(path)
    used = loaded_names(tree)
    unused = {name: line for name, line in private_definitions(tree).items()
              if name not in used}
    assert not unused, f"{path.name} never references its private names (name: line): {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_id_call(path):
    calls = [node.lineno for node in ast.walk(parse(path)) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "id"]
    assert not calls, (f"{path.name} calls id() on lines {calls}; key a memo on content, "
                       "or compare with `is` on objects the caller holds")
