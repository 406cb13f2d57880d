"""README's python blocks run and quote the engine; its command lines parse."""

import re
import shlex
from pathlib import Path

import pytest

from bosecanon.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_and_quote_the_engine():
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # each `res.<name>  # <value>` comment is the value rounded as written
    quoted = re.findall(r"^res\.(\w+)\s+#\s+(-?\d+\.(\d+))", blocks[0],
                        flags=re.M)
    assert {name for name, _, _ in quoted} >= {
        "n0_mean", "delta_n0", "covariance_n0_n1"}
    res = namespace["res"]
    for name, value, decimals in quoted:
        assert round(getattr(res, name), len(decimals)) == pytest.approx(
            float(value), abs=1e-12), name
    tc = re.search(r"# ~(\d+\.(\d+)) for N = 1000", blocks[0])
    assert round(namespace["tc"], len(tc.group(2))) == float(tc.group(1))


def test_readme_command_lines_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    lines = [shlex.split(line, comments=True) for block in blocks
             for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["bosecanon"]]
    assert commands
    for args in commands:
        build_parser().parse_args(args)
