"""README's Python examples run and print what their comments say, and its event example is a real run."""

import contextlib
import io
import re
from pathlib import Path

from hge.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def _first_block_after(heading: str) -> str:
    """The first fenced block after a README heading."""
    text = README.read_text(encoding="utf-8")
    return re.search(rf"{re.escape(heading)}\n.*?```[a-z]*\n(.*?)```", text, re.S).group(1)


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


def test_readme_events_are_those_of_its_script(tmp_path, capsys):
    script = tmp_path / "run.script"
    script.write_text(_first_block_after("### Script files (`hge synth`)"))
    left, right, events = (str(tmp_path / name) for name in ("l.csv", "r.csv", "e.txt"))
    assert run(["synth", "--script", str(script), "--out-left", left, "--out-right", right]) == 0
    assert run(["detect", "--left", left, "--right", right, "--events", events]) == 0
    assert _first_block_after("### Event and report formats (`hge detect`)") == Path(events).read_text()
