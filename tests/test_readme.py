"""README.md's Python example runs, and prints what its comments say."""

import contextlib
import io
import json
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_example_runs_as_documented():
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})
    first, second, *rest = out.getvalue().splitlines()
    # the first print line's comment is its output
    (shown,) = re.findall(r"^print\(result\.mode.*# (.*)$", example, re.MULTILINE)
    assert first == shown
    assert abs(float(second) + 1.0) < 0.01
    assert json.loads("\n".join(rest))["mode"] == "symmetry"
