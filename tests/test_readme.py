"""The README's Library example runs as written, on exported names only."""

import ast
import re
from pathlib import Path

import hgrw

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_on_exported_names():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    imported = [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "hgrw"
        for alias in node.names
    ]
    assert imported and set(imported) <= set(hgrw.__all__)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert len(namespace["history"]) == 230
    assert namespace["report"].mh_after >= namespace["report"].mh_before
