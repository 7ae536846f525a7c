"""README's "Library" example runs as written, on a fixture."""

import re
from pathlib import Path

from conftest import FIXTURES

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert '"study.ttl"' in code
    exec(code.replace('"study.ttl"', repr(str(FIXTURES / "eusilc.ttl"))), {})
    out = capsys.readouterr().out
    assert "summary: 0 error(s), 0 warning(s), 0 info(s)" in out
