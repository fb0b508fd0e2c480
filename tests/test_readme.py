"""The README's examples run as written: the Library example on exported
names only, and every line of the Command line block."""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import hgrw
from hgrw.cli import main

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


def test_command_line_block_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert commands and all(argv[0] == "hgrw" for argv in commands)
    monkeypatch.chdir(tmp_path)  # the block writes relative paths
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv[1:]) == 0, shlex.join(argv)
