"""The README's library quick-start runs and prints what its comments promise."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_keeps_its_promises(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    assert (scope["w1"], scope["w2"]) == (2, 0)
    assert scope["content"]["left"].labels == ("bell:00-11",)
    assert capsys.readouterr().out == "('bell:00-11',)\n"
