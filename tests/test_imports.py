"""Every module-level import in the package and the tests is read, and
every function, class and method of the package is used.

An import whose bound name the module never reads is dead code that still
runs at import time.  A read is any load of the name anywhere in the module
(annotations included) or its entry in ``__all__``; ``from __future__``
imports are exempt.

A module-level function or class, or a method other than a dunder, of
``src/stirtree/`` is used when a module of ``src/``, ``tests/`` or
``perfbench/`` loads its name, as a name or an attribute, or imports it.
The benchmark's tables name the functions they time in strings, so a
string constant of ``perfbench/`` that is an identifier counts too;
docstrings and comments do not.
"""

import ast
from pathlib import Path

import pytest

ROOT_DIR = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT_DIR / "src" / "stirtree").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT_DIR / "tests").glob("*.py")])
BENCH = sorted((ROOT_DIR / "perfbench").glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _module_imports(tree: ast.Module):
    """(bound name, line) of each import outside function and class bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for alias in node.names:
                    yield alias.asname or alias.name, node.lineno
        elif not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            stack.extend(ast.iter_child_nodes(node))


def _reads(tree: ast.Module) -> set[str]:
    names = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            names.update(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_module_level_import_is_read(path):
    tree = _parse(path)
    reads = _reads(tree)
    unused = [
        f"{name} (line {line})"
        for name, line in _module_imports(tree)
        if name not in reads
    ]
    assert not unused, f"{path.name} never reads: {', '.join(unused)}"


def _definitions(tree: ast.Module):
    """(name, line) of each module-level function and class, and of each
    method of a module-level class but the dunders."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*defs, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, item.lineno


def _uses(tree: ast.Module, strings: bool) -> set[str]:
    """Names loaded or imported in ``tree``; with ``strings``, also the
    identifier string constants that are not docstrings."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (
            strings
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in docstrings
        ):
            names.add(node.value)
    return names


def test_every_package_definition_is_used():
    uses = set().union(
        *(_uses(_parse(path), strings=False) for path in MODULES),
        *(_uses(_parse(path), strings=True) for path in BENCH),
    )
    unused = [
        f"{path.name}: {name} (line {line})"
        for path in PACKAGE
        for name, line in _definitions(_parse(path))
        if name not in uses
    ]
    assert not unused, f"never used: {', '.join(unused)}"
