"""The benchmark (perfbench/) reaches into the program by name: the traced run
replaces functions listed in perfbench/layers.py, and the evaluate workload
and the correctness gate import program names and read ObjectiveSpec
attributes. A name that disappears fails the benchmark only at run time, so
these tests check every one. The perfbench files are read, never imported
as a package."""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

from inducibility.objectives import ObjectiveSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_file(name: str) -> Path:
    path = PERFBENCH / name
    if not path.is_file():
        pytest.skip("perfbench/ is absent")
    return path


def test_trace_targets_exist():
    targets = runpy.run_path(str(_perfbench_file("layers.py")))["TARGETS"]
    assert targets
    for owner, attr, _, _ in targets:
        module_name, _, class_name = owner.partition(":")
        obj = importlib.import_module(module_name)
        if class_name:
            obj = getattr(obj, class_name)
        assert hasattr(obj, attr), f"{owner} has no attribute {attr}"


def _import(module: str, name: str):
    """``from module import name``: an attribute, or else a submodule."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        pytest.fail(f"{module} has no name {name}")


def _attribute_chain(node: ast.Attribute) -> tuple[str, list[str]]:
    """``a.b.c`` -> ("a", ["b", "c"]); ("", []) when the root is not a name."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return (node.id, attrs[::-1]) if isinstance(node, ast.Name) else ("", [])


@pytest.mark.parametrize("name", ["gate.py", "evaluate.py"])
def test_benchmark_names_exist(name):
    """Every name imported from inducibility, every attribute read through
    one, and every attribute read from a variable ``spec`` (an ObjectiveSpec)
    must exist."""
    tree = ast.parse(_perfbench_file(name).read_text())
    bound = {"spec": ObjectiveSpec.partite_density([2, 1])}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "inducibility":
            for alias in node.names:
                bound[alias.asname or alias.name] = _import(node.module, alias.name)
    assert len(bound) > 1, f"{name} imports nothing from inducibility"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            root, attrs = _attribute_chain(node)
            if root in bound:
                obj = bound[root]
                for attr in attrs:
                    assert hasattr(obj, attr), f"{name}: {root}.{'.'.join(attrs)} is missing"
                    obj = getattr(obj, attr)
