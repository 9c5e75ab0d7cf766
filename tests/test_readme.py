"""Every ```python block of README.md runs as written, and its config block
holds the defaults."""

import dataclasses
import re
from pathlib import Path

import pytest

from broadcast_control import ExperimentConfig, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"
_TEXT = README.read_text()
# (first line number, code) of each block
BLOCKS = [
    (_TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```", _TEXT, re.M | re.S)
]


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line,code", BLOCKS, ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_python_block_runs(line, code, tmp_path, monkeypatch):
    # a block that writes files writes them into a fresh directory
    monkeypatch.chdir(tmp_path)
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {"__name__": "readme"})


def test_readme_config_block_is_the_defaults():
    # the "Config file format" block names every key once, in field order,
    # at its default
    block = _TEXT.split("### Config file format", 1)[1].split("```\n", 2)[1]
    assert parse_config(block) == ExperimentConfig()
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines()]
    assert keys == [f.name for f in dataclasses.fields(ExperimentConfig)]
