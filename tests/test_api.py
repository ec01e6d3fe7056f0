"""The package's public surface: its export list and the README's example."""

import re
from pathlib import Path

import qprenex

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in qprenex.__all__ if not hasattr(qprenex, name)]
    assert missing == []


def test_readme_library_sketch_runs():
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})
