"""A fresh process's fixed cost: each command compiles and runs only the
modules it uses, and importing the CLI builds no generated code.

The package registers its submodules lazily (``inducibility/__init__.py``):
a registered module that nothing has read is still a lazy module, and
``type(m)`` reads no attribute of it, so ``type(m) is types.ModuleType``
tells the modules a process executed without loading the others.

``dataclasses`` writes each generated method as source and ``exec``s it, and
pulls ``inspect``, ``ast``, ``dis`` and ``tokenize`` in with it; every
benchmark child and every CLI call would pay for that at start-up. The
package's records are plain ``__slots__`` classes instead.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# runs the CLI with the process's arguments, then prints the exit code and the
# package modules executed
PROBE = """
import json, sys, types
from inducibility import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(name.partition(".")[2] for name, m in sys.modules.items()
                               if name.startswith("inducibility.")
                               and type(m) is types.ModuleType)]))
"""


def _fresh(*args: str) -> str:
    """stdout of ``python -S`` with args; -S keeps site hooks (.pth files of
    installed packages) out of sys.modules."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-S", *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def _executed(*argv: str) -> tuple[int, set[str]]:
    code, modules = json.loads(_fresh("-c", PROBE, *argv).splitlines()[-1])
    return code, set(modules)


def test_registered_submodules_are_the_package_modules():
    """Importing the package registers every module file but the entry points,
    and executes none of them."""
    out = _fresh("-c", "import json, sys, types, inducibility\n"
                       "print(json.dumps({name: type(m) is types.ModuleType\n"
                       "                  for name, m in sys.modules.items()\n"
                       "                  if name.startswith('inducibility.')}))")
    registered = json.loads(out)
    files = {path.stem for path in (SRC / "inducibility").glob("*.py")}
    assert set(registered) == {f"inducibility.{name}"
                               for name in files - {"__init__", "__main__", "cli"}}
    assert not any(registered.values())


def test_help_executes_only_the_cli():
    assert _executed("--help") == (0, {"cli"})


@pytest.mark.parametrize("argv, used, unused", [
    (["density", "--objective", "KP 2,1", "--vector", '{"x0":"0","parts":["1/2","1/2"]}'],
     {"objectives", "partite"},
     {"certificates", "optsearch", "strictness", "symmetrise", "intervals", "matrices"}),
    (["opt", "--objective", "KP 2,1", "--max-support", "3", "--starts", "5"],
     {"optsearch"}, {"certificates", "strictness", "symmetrise"}),
    (["certify", "krt", "--r", "2", "--t", "3"],
     {"certificates", "strictness"}, {"intervals", "matrices", "optsearch"}),
])
def test_command_executes_only_the_modules_it_uses(argv, used, unused):
    code, executed = _executed(*argv, "--quiet")
    assert code == 0
    assert used <= executed and not unused & executed, sorted(executed)


def test_cli_import_loads_no_dataclasses():
    """Nor does executing every module of the package."""
    out = _fresh("-c", "import importlib, sys, types, inducibility, inducibility.cli\n"
                       "for name in inducibility.SUBMODULES:\n"
                       "    importlib.import_module('inducibility.' + name)\n"
                       "print(all(type(sys.modules['inducibility.' + name]) is types.ModuleType\n"
                       "          for name in inducibility.SUBMODULES),\n"
                       "      'dataclasses' in sys.modules)")
    assert out.split() == ["True", "False"]


def test_package_never_imports_dataclasses():
    found = []
    for path in sorted((SRC / "inducibility").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for n in names
                      if n.split(".")[0] == "dataclasses"]
    assert not found, found


def test_package_data_is_read_without_importlib_resources():
    """The report schema and the k311 data are read from the package
    directory, so no command imports ``importlib.resources`` (and with it
    ``tempfile``, ``shutil`` and the compression modules)."""
    for argv in (["--help"], ["certify", "krt", "--r", "2", "--t", "3", "--quiet"],
                 ["certify", "k311", "--quiet"]):
        out = _fresh("-c", "import sys\n"
                           "from inducibility import cli\n"
                           "code = cli.main(sys.argv[1:])\n"
                           "print(code, 'importlib.resources' in sys.modules)", *argv)
        assert out.split()[-2:] == ["0", "False"], argv
