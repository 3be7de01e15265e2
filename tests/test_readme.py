"""README.md's Python examples run as written and import only exported names."""
from __future__ import annotations

import ast
import re
from pathlib import Path

import mwrobust

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_on_exported_names():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert blocks
    for source in blocks:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "mwrobust":
                assert {alias.name for alias in node.names} <= set(mwrobust.__all__)
        exec(compile(source, str(README), "exec"), {})
