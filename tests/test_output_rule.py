"""Output directories are created in one place: `io.atomic_write_bytes`
creates a file's directory as it writes the file, so a run that fails
before its first write leaves no directory behind. No CLI function makes
a directory of its own."""

import ast
from pathlib import Path

import flowattack

CLI = Path(flowattack.__file__).parent / "cli.py"


def test_cli_makes_no_directories():
    tree = ast.parse(CLI.read_text(), filename=str(CLI))
    calls = [(func.name, node.lineno)
             for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
             for node in ast.walk(func)
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             in ("mkdir", "makedirs")]
    assert calls == []
