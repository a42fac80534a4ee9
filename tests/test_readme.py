"""The README's examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from softtilt.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)


def test_readme_has_python_examples():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})


def test_countable_example_output_is_exact(tmp_path, capsys):
    family = re.search(r"cat > geo\.json << 'EOF'\n(.*?)^EOF$", README, re.S | re.M).group(1)
    shown = re.search(r"softtilt countable geo\.json\n```\n\n```json\n(.*?)^```", README, re.S | re.M)
    path = tmp_path / "geo.json"
    path.write_text(family, encoding="utf-8")
    assert main(["countable", str(path)]) == 0
    assert capsys.readouterr().out == shown.group(1)
