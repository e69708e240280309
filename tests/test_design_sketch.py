"""The public API sketch in DESIGN.md §5 must run against the real API."""

import re
from pathlib import Path

DESIGN = Path(__file__).resolve().parents[1] / "DESIGN.md"


def test_public_api_sketch_runs(capsys):
    text = DESIGN.read_text()
    section = text[text.index("## 5. Public API sketch"):]
    section = section[: section.index("\n## ", 1)]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(code, "DESIGN.md §5", "exec"), {})
    assert "{'src': 1, 'flt': 2, 'snk': 2}" in capsys.readouterr().out
