"""Every public name of the package is reached by the program.

A public (non-underscore, non-dunder) module-level function or class, or a
public method of a module-level class, must be read somewhere in src/
outside its own body, or in the benchmark scripts (perfbench/*.py).
Re-exports in __init__.py and uses in tests/ do not count: a name only tests
call is test code and belongs in tests/.

What counts as a read:
- only a load: a field declaration such as ``attach: UPoly`` or an
  assignment stores the name and does not count;
- a method only through an attribute access (``obj.name``);
- a module-level function or class only through a bare name, or through
  ``module.name`` on an imported inducibility module;
- a string only in perfbench/layers.py, which names the traced targets
  (a JSON key elsewhere in perfbench is data, not a use).

The test reads names, not types, so it cannot tell apart methods of the same
name on several classes: a dead ``degree``, ``const`` or ``graph`` method
would pass while a live member of that name exists on another class.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "inducibility"
PERFBENCH = ROOT / "perfbench"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
MODULES = {path.stem for path in SRC.glob("*.py")}

def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _public_definitions(tree: ast.Module):
    """(node, is_method) of every public module-level definition and every
    public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, _DEFS) and _is_public(node.name):
            yield node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS) and _is_public(item.name):
                    yield item, True


def _dotted(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _module_aliases(tree: ast.Module) -> set[str]:
    """Dotted names bound to an inducibility module by the imports of tree."""
    aliases = {f"inducibility.{m}" for m in MODULES}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module == "inducibility"
                                                 or (node.level and node.module is None)):
            aliases |= {a.asname or a.name for a in node.names if a.name in MODULES}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names
                        if a.asname and a.name.removeprefix("inducibility.") in MODULES}
    return aliases


def _references(tree: ast.Module, strings: bool):
    """(kind, name, line) of every read in tree: kind "name" for a bare name
    load, "module" for ``module.name`` on an inducibility module, "attr" for
    any attribute load, and "string" for string constants when ``strings``."""
    modules = _module_aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield "name", node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield "attr", node.attr, node.lineno
            if _dotted(node.value) in modules:
                yield "module", node.attr, node.lineno
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield "string", node.value, node.lineno


def _all_references():
    refs = {path.name: list(_references(ast.parse(path.read_text(), str(path)), strings=False))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        refs["perfbench/" + path.name] = list(_references(tree, strings=path.name == "layers.py"))
    return refs


def test_no_public_definitions_reached_only_from_tests():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    refs = _all_references()
    assert len(trees) > 5
    unused = []
    for file, tree in trees.items():
        for node, is_method in _public_definitions(tree):
            kinds = {"attr", "string"} if is_method else {"name", "module", "string"}
            used = any(kind in kinds and name == node.name
                       and not (other == file and node.lineno <= line <= node.end_lineno)
                       for other, found in refs.items() for kind, name, line in found)
            if not used:
                unused.append(f"{file}:{node.lineno} {node.name}")
    assert not unused, "public definitions reached only from tests: " + ", ".join(unused)

