"""README.md's Python examples run as written and import only exported names; its shell
examples name only subcommands, options and choices the CLI's parser accepts."""
from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

import mwrobust
from mwrobust.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_on_exported_names():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert blocks
    for source in blocks:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "mwrobust":
                assert {alias.name for alias in node.names} <= set(mwrobust.__all__)
        exec(compile(source, str(README), "exec"), {})


def test_shell_examples_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    lines = [shlex.split(line) for block in blocks for line in block.splitlines() if line.startswith("mwrobust ")]
    assert len(lines) >= 7
    for argv in lines:
        build_parser().parse_args(argv[1:])  # a removed option or choice exits 2
