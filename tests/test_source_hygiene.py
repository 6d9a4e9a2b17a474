"""What deletions leave behind in ``src/shiftcache``, found with ``ast``.

No linter is part of the toolchain, so these three checks stand in for
the ones that matter after code is removed: a module that imports a name
it never uses, a private module-level name (``_x``) that its module never
references, and a public module-level name that the package does not
export and that neither the package nor the benchmark reads. The
package's ``__init__`` imports to re-export, so its imports are exempt
from the first check. A fourth check refuses any call of ``id()``: a memo
keyed on an object's id once broke two golden digests, because CPython
reuses the id of an object that has been freed.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shiftcache"
MODULES = sorted(PACKAGE.glob("*.py"))
IMPORTING = [path for path in MODULES if path.name != "__init__.py"]
# Public names kept with no reader in the package: the LVT1 reader that
# mirrors ``save_latents``.
UNREAD_PUBLIC = {("fileio.py", "load_latents")}


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


def read_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, bare or as an attribute of anything."""
    return loaded_names(tree) | {node.attr for node in ast.walk(tree)
                                 if isinstance(node, ast.Attribute)}


def module_definitions(tree: ast.Module) -> dict[str, int]:
    """name -> line of every name that a module-level def, class or
    assignment binds."""
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
        names.update(dict.fromkeys(bound, node.lineno))
    return names


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """name -> line of every private (``_x``, not dunder) module-level name."""
    return {name: line for name, line in module_definitions(tree).items()
            if name.startswith("_") and not name.startswith("__")}


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


def test_no_unread_public_name():
    """A public module-level name that ``__init__`` does not export, that no
    module of the package reads (by name or as an attribute) and that the
    benchmark does not read either is left over from a deletion."""
    exported = imported_names(parse(PACKAGE / "__init__.py"))
    read = set().union(*(read_names(parse(path))
                         for path in MODULES + [ROOT / "perfbench" / "run.py"]))
    unread = [(path.name, name, line) for path in IMPORTING
              for name, line in module_definitions(parse(path)).items()
              if not name.startswith("_") and name not in exported and name not in read
              and (path.name, name) not in UNREAD_PUBLIC]
    assert not unread, f"public names nothing exports or reads (module, name, line): {unread}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_id_call(path):
    calls = [node.lineno for node in ast.walk(parse(path)) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "id"]
    assert not calls, (f"{path.name} calls id() on lines {calls}; key a memo on content, "
                       "or compare with `is` on objects the caller holds")
