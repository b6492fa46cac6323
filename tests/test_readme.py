"""The README's Library example runs as written, so an API change cannot
leave it stale."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)\n```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    lines = out.getvalue().splitlines()
    # the report line, one line per inequality check, the transcript line
    assert len(lines) == 6
    assert all(line.split()[1] == "True" for line in lines[1:5])
