"""README's Python examples run and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_print_their_comments():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    checked = []
    for block in blocks:
        # a `print(...)  # text` line must print exactly `text`
        expected = [line.split("#", 1)[1].strip() for line in block.splitlines()
                    if line.startswith("print(") and "#" in line]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        assert out.getvalue().splitlines() == expected
        checked += expected
    assert "(True, 1.0)" in checked     # the quick start's signature match
