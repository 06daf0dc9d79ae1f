"""Every module-level import in the package and the tests is read.

An import whose bound name the module never reads is dead code that still
runs at import time.  A read is any load of the name anywhere in the module
(annotations included) or its entry in ``__all__``; ``from __future__``
imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT_DIR = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [*(ROOT_DIR / "src" / "stirtree").glob("*.py"), *(ROOT_DIR / "tests").glob("*.py")]
)


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
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = _reads(tree)
    unused = [
        f"{name} (line {line})"
        for name, line in _module_imports(tree)
        if name not in reads
    ]
    assert not unused, f"{path.name} never reads: {', '.join(unused)}"
