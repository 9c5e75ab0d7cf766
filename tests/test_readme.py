"""Every ```python block of README.md runs as written, and its config block
holds the defaults."""

import dataclasses
import re
from pathlib import Path

import pytest

from broadcast_control import ExperimentConfig, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"
_TEXT = README.read_text()
# a fenced block with its language, or a heading line outside every block
_PARTS = re.compile(r"^```(\w*)\n(.*?)^```|^#+ ([^\n]+)", re.M | re.S)


def _python_blocks() -> list:
    """(id, first line number, code) of each python block.  The id is the
    heading above the block and the block's ordinal under it, so an edit
    elsewhere in README leaves it as it is."""
    blocks, heading, ordinal = [], "", 0
    for m in _PARTS.finditer(_TEXT):
        if m.group(3) is not None:
            heading, ordinal = re.sub(r"\W+", "-", m.group(3).lower()).strip("-"), 0
        elif m.group(1) == "python":
            ordinal += 1
            line = _TEXT.count("\n", 0, m.start(2)) + 1
            blocks.append((f"{heading}-{ordinal}", line, m.group(2)))
    return blocks


BLOCKS = _python_blocks()


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line,code", [b[1:] for b in BLOCKS], ids=[b[0] for b in BLOCKS])
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
