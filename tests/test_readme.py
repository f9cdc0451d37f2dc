"""Every ```python block of README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run(tmp_path, monkeypatch):
    """Each block runs in a fresh namespace, in a scratch directory (the
    examples may write files, such as a measurement cache)."""
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    assert blocks
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        fence = text.count("\n", 0, block.start()) + 1
        # Pad so tracebacks name the block's README line numbers.
        code = compile("\n" * fence + block.group(1), str(README), "exec")
        exec(code, {"__name__": "__readme__"})
