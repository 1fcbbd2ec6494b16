"""The runtime stays numpy-only: every import in the package is from the
standard library, numpy or the package itself. Importing the CLI loads no
process-pool machinery."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowattack

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "flowattack"}
MODULES = sorted(Path(flowattack.__file__).parent.glob("*.py"))


def imported_roots(tree):
    """Top-level package of every absolute import; relative ones are the
    package's own."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "flowattack" if node.level else node.module.split(".")[0]


def test_modules_found():
    assert {"diffflow.py", "attack.py", "io.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_stdlib_numpy_or_package(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert set(imported_roots(tree)) <= ALLOWED


def test_cli_import_leaves_process_pools_unloaded():
    """Only `attack --jobs N` with N > 1 needs a process pool; importing it
    on every start-up would slow every run."""
    code = ("import sys, flowattack.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules))")
    src = str(Path(flowattack.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
