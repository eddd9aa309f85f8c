"""Every private helper of the package is used somewhere in it.

A private (leading underscore, non-dunder) module-level function or class,
or a private method of a module-level class, that nothing in src/ refers to
outside its own body is dead code: its last caller was removed. Tests do not
count as callers, so a helper kept alive only by a test fails here too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "inducibility"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, _DEFS) and _is_private(node.name):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS) and _is_private(item.name):
                    yield item


def _references(tree: ast.Module):
    """(name, line) of every name read and attribute accessed."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_no_unreferenced_private_definitions():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    refs = {name: list(_references(tree)) for name, tree in trees.items()}
    assert len(trees) > 5
    unused = []
    for file, tree in trees.items():
        for node in _private_definitions(tree):
            used = any(name == node.name
                       and not (other == file and node.lineno <= line <= node.end_lineno)
                       for other, found in refs.items() for name, line in found)
            if not used:
                unused.append(f"{file}:{node.lineno} {node.name}")
    assert not unused, "private definitions referenced nowhere in src: " + ", ".join(unused)
