"""The README's library quick-start runs and prints what its comments promise,
and its command-line section names the tasks the parser takes."""

import re
from pathlib import Path

from mkc import cli, config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_keeps_its_promises(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    assert (scope["w1"], scope["w2"]) == (2, 0)
    assert scope["content"]["left"].labels == ("bell:00-11",)
    assert capsys.readouterr().out == "('bell:00-11',)\n"


def test_readme_task_list_and_options_match_the_parser():
    listed = re.search(r"^Tasks: (.*?)\.", README.read_text(encoding="utf-8"), re.M | re.S)
    assert tuple(re.findall(r"`([^`]+)`", listed.group(1))) == config.TASKS
    actions = cli.build_parser()._actions
    assert [a.dest for a in actions if not a.option_strings] == ["task"]
    options = {s for a in actions for s in a.option_strings}
    assert options == {"-h", "--help", "--config", "--out", "--format"}
