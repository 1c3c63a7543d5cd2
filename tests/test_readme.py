"""The README's library quick-start runs and prints what its comments promise,
its command-line section names the tasks the parser takes, and its config
example runs."""

import re
from pathlib import Path

from mkc import cli, config, disorder
from mkc.lattice import ChainLattice, _FrameBlocks, chain_hopping_blocks
from mkc.models import PARALLEL, ChildSpec, ParentParams

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


def test_readme_config_example_runs(tmp_path):
    blocks = re.findall(r"^```ini\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    path, out = tmp_path / "run.cfg", tmp_path / "density.csv"
    path.write_text(blocks[0], encoding="utf-8")
    assert cli.main(["density", "--config", str(path), "--out", str(out)]) == 0
    assert "# model.kind = mkc-parallel" in out.read_text(encoding="utf-8")


def test_readme_canonical_channel_classes_match_the_sweep():
    # the class list the README gives for the canonical child, against the classes
    # the disorder sweep forms at the benchmark point (L = 80, mu = 0)
    text = " ".join(README.read_text(encoding="utf-8").split())
    said = re.search(
        r"The canonical child \(t = Delta = 1, mu = 0 in both parents\) so falls into (\w+) "
        r"classes: (.*?), and takes (\w+) solves\.",
        text,
    )
    braces = re.findall(r"\{(.*?)\}", said.group(2))
    listed = sorted(sorted(re.findall(r"`(\w+)`", c)) for c in braces)
    model = ChildSpec(ParentParams(1.0, 1.0, 0.0), ParentParams(1.0, 1.0, 0.0), PARALLEL)
    lat = ChainLattice(80)
    links = disorder._site_symmetries(_FrameBlocks(chain_hopping_blocks(model)), lat)
    owners = disorder._solve_owners(disorder.CHILD_CHANNELS, links)
    classes = {}
    for c, o in enumerate(owners):
        classes.setdefault(o, []).append(disorder.channel_name(disorder.CHILD_CHANNELS[c]))
    assert listed == sorted(sorted(c) for c in classes.values())
    words = ["five", "six", "seven", "eight", "nine"]
    assert said.group(1) == said.group(3) == words[len(classes) - 5]
