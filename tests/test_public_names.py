"""Every public name of the package is reached by the program.

A public (non-underscore, non-dunder) module-level function or class, or a
public method of a module-level class, must be referred to by name somewhere
in src/ outside its own body, or in the benchmark scripts (perfbench/*.py,
which also name traced functions as strings). Re-exports in __init__.py and
uses in tests/ do not count: a name only tests call is test code and belongs
in tests/. The only exceptions are the paper-facing functions in API, each
kept for the paper notion it computes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "inducibility"
PERFBENCH = ROOT / "perfbench"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# name -> the paper notion it computes
API = {
    "lambda_vertex": "lambda(G, v), the mean of gamma over the k-subsets through v",
    "density_polynomial": "the induced density of K_a in a complete partite limit, as a polynomial",
    "pattern_e": "the clone attachment pattern e_i, joined to every part but part i",
    "compare_bounds": "the comparison bounds of the stability theorem between a graph "
                      "and a complete partite realisation",
    "finite_strictness_check": "the strictness conditions at a finite n",
}


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, _DEFS) and _is_public(node.name):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS) and _is_public(item.name):
                    yield item


def _references(tree: ast.Module, strings: bool):
    """(name, line) of every name read and attribute accessed, and of every
    string constant when ``strings`` is set."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_no_public_definitions_reached_only_from_tests():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    refs = {name: list(_references(tree, strings=False))
            for name, tree in trees.items() if name != "__init__.py"}
    for path in sorted(PERFBENCH.glob("*.py")):
        refs["perfbench/" + path.name] = list(_references(ast.parse(path.read_text()), strings=True))
    assert len(trees) > 5
    unused = []
    for file, tree in trees.items():
        for node in _public_definitions(tree):
            if node.name in API:
                continue
            used = any(name == node.name
                       and not (other == file and node.lineno <= line <= node.end_lineno)
                       for other, found in refs.items() for name, line in found)
            if not used:
                unused.append(f"{file}:{node.lineno} {node.name}")
    assert not unused, "public definitions reached only from tests: " + ", ".join(unused)


def test_api_names_exist():
    defined = {node.name for path in SRC.glob("*.py")
               for node in _public_definitions(ast.parse(path.read_text()))}
    assert set(API) <= defined
