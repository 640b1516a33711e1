"""The README's library sketch runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.M | re.S)
    assert blocks
    for n, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {n}", "exec"), {})
