"""The README's Python examples still run."""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"```python\n(.*?)```", (REPO / "README.md").read_text(), re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code, monkeypatch):
    monkeypatch.chdir(REPO)  # example paths are relative to the repo root
    exec(compile(code, "README.md", "exec"), {"__name__": "__readme__"})
