"""A fresh process's fixed cost: importing the CLI builds no generated code.

``dataclasses`` writes each generated method as source and ``exec``s it, and
pulls ``inspect``, ``ast``, ``dis`` and ``tokenize`` in with it; every
benchmark child and every CLI call would pay for that at start-up. The
package's records are plain ``__slots__`` classes instead.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_no_dataclasses():
    # -S keeps site hooks (.pth files of installed packages) out of sys.modules
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, inducibility.cli; print('dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_package_never_imports_dataclasses():
    found = []
    for path in sorted((SRC / "inducibility").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for n in names
                      if n.split(".")[0] == "dataclasses"]
    assert not found, found
