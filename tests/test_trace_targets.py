"""The traced benchmark run (perfbench/) replaces program functions by name;
every name it lists must exist, or the traced run crashes. The list is read
from perfbench/layers.py without importing perfbench as a package."""

import importlib
import runpy
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_trace_targets_exist():
    if not LAYERS.is_file():
        pytest.skip("perfbench/ is absent")
    targets = runpy.run_path(str(LAYERS))["TARGETS"]
    assert targets
    for owner, attr, _, _ in targets:
        module_name, _, class_name = owner.partition(":")
        obj = importlib.import_module(module_name)
        if class_name:
            obj = getattr(obj, class_name)
        assert hasattr(obj, attr), f"{owner} has no attribute {attr}"
