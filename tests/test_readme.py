"""The README's library example runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_api_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library API", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, f"{README}:Library API", "exec"), namespace)
    assert namespace["report"].passed
