"""The README's Python quickstart runs as written, so it cannot rot."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs():
    section = README.read_text().split("## Python quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "no python block under '## Python quickstart'"
    exec(compile(block.group(1), f"{README.name} quickstart", "exec"), {})
