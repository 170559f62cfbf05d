"""The examples of README.md: every python block runs as written, and
the sample report is what its command prints."""

import re
from pathlib import Path

import pytest

from pathalg.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def test_readme_has_python_blocks():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_python_block_runs(index):
    exec(compile(PYTHON_BLOCKS[index], f"README.md block {index}", "exec"), {})


def test_sample_report_is_what_its_command_prints(capsys):
    samples = re.findall(r"`pathalg ([^`]+)` prints:\n\n```text\n(.*?)```",
                         README, re.S)
    assert samples
    for command, text in samples:
        assert main(command.split()) == 0
        assert capsys.readouterr().out == text
