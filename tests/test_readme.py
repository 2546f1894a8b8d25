"""The README's python example prints what its trailing comments say."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block():
    text = README.read_text()
    start = text.index("```python\n") + len("```python\n")
    return text[start:text.index("```", start)]


def test_readme_example_prints_its_comments():
    code = python_block()
    want = [line.rpartition("#")[2].strip() for line in code.splitlines()
            if line.startswith("print(")]
    assert want
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(code, str(README), "exec"), {})
    assert buf.getvalue().splitlines() == want
