"""Config parsing: validation messages, defaults, round-tripping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import serialize_config
from mkc import tasks
from mkc.config import _TASKS, MODEL_KINDS, TASKS, parse_config
from mkc.errors import ConfigError
from mkc.lattice import ChainLattice, SlabLattice
from mkc.models import ChildSpec, ParentParams

PARENT_HEAD = """
[model]
kind = parent
t1 = 1.0
delta1 = 0.5
mu1 = 0.25
"""

CHILD_HEAD = """
[model]
kind = mkc-parallel
t1 = 1.0
delta1 = 0.5
mu1 = 0.25
t2 = -0.8
delta2 = 0.3
mu2 = 0.1
"""


def test_minimal_spectrum_config():
    cfg = parse_config(
        PARENT_HEAD + "[lattice]\nl = 10\n[task]\nname = spectrum\n"
    )
    assert cfg.kind == "parent"
    assert isinstance(cfg.model, ParentParams)
    assert cfg.model.mu == 0.25
    assert cfg.lattice == ChainLattice(10, "open")
    assert cfg.options == {}
    assert cfg.output_path == "-" and cfg.output_format == "csv"


def test_child_model_and_task_defaults():
    cfg = parse_config(CHILD_HEAD + "[task]\nname = wannier\n")
    assert isinstance(cfg.model, ChildSpec)
    assert cfg.model.p2.t == -0.8
    assert cfg.options == {"loop-points": 1001, "fixed-momentum": 0.0}
    cfg = parse_config(
        CHILD_HEAD + "[lattice]\nl = 12\n[task]\nname = disorder\n"
    )
    assert cfg.options["channel"] is None
    assert cfg.options["amplitude"] == 0.2
    assert cfg.options["realizations"] == 50
    assert cfg.options["seed"] == 42


@pytest.mark.parametrize(
    "text,fragment",
    [
        (PARENT_HEAD + "[task]\nname = spectrum\n", "needs a [lattice] section"),
        (PARENT_HEAD + "[lattice]\nl = 10\n[task]\nname = spectrum\n[junk]\na = 1\n", "unknown section [junk]"),
        (PARENT_HEAD + "[lattice]\nl = 10\nmu3 = 1\n[task]\nname = spectrum\n", "[lattice] unknown key mu3"),
        (PARENT_HEAD + "[lattice]\nl = ten\n[task]\nname = spectrum\n", "[lattice] l"),
        (PARENT_HEAD + "[lattice]\nl = 10\nbc = wrapped\n[task]\nname = spectrum\n", "[lattice] bc"),
        (PARENT_HEAD + "t2 = 1.0\n[task]\nname = wannier\n", "[model] t2: not a parent parameter"),
        (PARENT_HEAD + "[task]\nname = frobnicate\n", "unknown task"),
        (PARENT_HEAD + "[task]\nname = wannier\nthreads = 1\n", "[task] unknown key threads"),
        ("[task]\nname = wannier\n", "missing section [model]"),
        (PARENT_HEAD.replace("mu1 = 0.25\n", "") + "[task]\nname = wannier\n", "[model] missing required key mu1"),
        (CHILD_HEAD.replace("t2 = -0.8\n", "") + "[task]\nname = wannier\n", "[model] missing required key t2"),
        (PARENT_HEAD + "[task]\n", "[task] missing required key name"),
    ],
)
def test_rejects_with_named_key(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


_QUANTIZATION = CHILD_HEAD + "[lattice]\nl = 6\n[task]\nname = quantization\n"
_DISORDER = CHILD_HEAD + "[lattice]\nl = 6\n[task]\nname = disorder\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            PARENT_HEAD + "[task]\nname = sweep-length\nl-min = 6\nl-max = 4\n",
            "[task] l-min must be <= l-max, got 6 > 4",
        ),
        (_QUANTIZATION + "mu-min = 0.5\n", "[task] mu-min and mu-max must be given together"),
        (_QUANTIZATION + "mu-max = 0.5\n", "[task] mu-min and mu-max must be given together"),
        (_QUANTIZATION + "mu-min = 0.5\nmu-max = 0.5\n", "[task] mu-min must be < mu-max, got 0.5 >= 0.5"),
        (
            _DISORDER + "mu-min = -1\nmu-max = 1\n",
            "[task] mu-min, mu-max and mu-points must be given together",
        ),
        (_DISORDER + "mu-points = 3\n", "[task] mu-min, mu-max and mu-points must be given together"),
    ],
)
def test_cross_key_rules_fail_in_parse_config(text, message):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == message


def test_cross_key_rules_pass_ordered_and_complete_keys():
    assert parse_config(PARENT_HEAD + "[task]\nname = sweep-length\nl-min = 4\nl-max = 4\n")
    assert parse_config(_QUANTIZATION + "mu-min = -0.5\nmu-max = 0.5\n").options["mu-max"] == 0.5
    # a disorder grid may run downwards: linspace takes the bounds in either order
    cfg = parse_config(_DISORDER + "mu-min = 1\nmu-max = -1\nmu-points = 3\n")
    assert (cfg.options["mu-min"], cfg.options["mu-max"]) == (1.0, -1.0)


@pytest.mark.parametrize(
    "head,task",
    [
        (PARENT_HEAD, "quantization"),
        (PARENT_HEAD, "classify"),
        (PARENT_HEAD, "symmetry-check"),
        (PARENT_HEAD, "dirac"),
        (CHILD_HEAD.replace("mkc-parallel", "mkc-perpendicular"), "sweep-mu"),
        (CHILD_HEAD.replace("mkc-parallel", "mkc-perpendicular"), "quantization"),
    ],
)
def test_task_kind_restrictions(head, task):
    with pytest.raises(ConfigError, match="does not apply"):
        parse_config(head + f"[lattice]\nl = 10\n[task]\nname = {task}\nmu-min = 0\nmu-max = 1\nmu-points = 3\n")


def test_cli_task_interaction():
    text = PARENT_HEAD + "[task]\nname = wannier\n"
    assert parse_config(text, cli_task="wannier").task == "wannier"
    with pytest.raises(ConfigError, match="command line says"):
        parse_config(text, cli_task="winding")
    # config without a name takes the command-line task
    bare = PARENT_HEAD + "[task]\nloop-points = 51\n"
    cfg = parse_config(bare, cli_task="wannier")
    assert cfg.task == "wannier" and cfg.options["loop-points"] == 51


def test_winding_lattice_requirement_depends_on_kind():
    assert parse_config(PARENT_HEAD + "[task]\nname = winding\n").lattice is None
    perp = CHILD_HEAD.replace("mkc-parallel", "mkc-perpendicular")
    with pytest.raises(ConfigError, match="needs a \\[lattice\\] section"):
        parse_config(perp + "[task]\nname = winding\n")
    cfg = parse_config(
        perp + "[lattice]\nlx = 6\nly = 7\nbcy = periodic\n[task]\nname = winding\n"
    )
    assert cfg.lattice == SlabLattice(6, 7, "open", "periodic")
    assert cfg.echo()["lattice"] == {"bcx": "open", "bcy": "periodic", "lx": "6", "ly": "7"}


def test_serialize_round_trip_examples():
    texts = [
        PARENT_HEAD + "[lattice]\nl = 10\nbc = periodic\n[task]\nname = spectrum\n",
        CHILD_HEAD + "[lattice]\nl = 24\n[task]\nname = sweep-mu\nmu-min = -1\nmu-max = 1\nmu-points = 5\nlink = opposite\n",
        CHILD_HEAD + "[lattice]\nl = 12\n[task]\nname = disorder\n[output]\npath = out.csv\nformat = json\n",
        CHILD_HEAD.replace("mkc-parallel", "mkc-perpendicular")
        + "[lattice]\nlx = 4\nly = 5\n[task]\nname = density\nzero-tol = 1e-6\n",
    ]
    for text in texts:
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        # output routing stays out of the scientific echo
        assert "output" not in cfg.echo() and "[output]\n" in serialize_config(cfg)
        # optional keys echo as empty strings and come back as None
        if cfg.task == "disorder":
            assert again.options["channel"] is None


_safe = st.floats(min_value=0.05, max_value=8.0, allow_nan=False)
_sign = st.sampled_from([-1.0, 1.0])


@settings(max_examples=40, deadline=None)
@given(
    t1=_safe, d1=_safe, mu1=st.floats(-9, 9, allow_nan=False),
    t2=_safe, d2=_safe, mu2=st.floats(-9, 9, allow_nan=False),
    s1=_sign, s2=_sign,
    kind=st.sampled_from(MODEL_KINDS),
    length=st.integers(min_value=2, max_value=60),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_round_trip_property(t1, d1, mu1, t2, d2, mu2, s1, s2, kind, length, fmt):
    lines = [
        "[model]",
        f"kind = {kind}",
        f"t1 = {s1 * t1!r}",
        f"delta1 = {d1!r}",
        f"mu1 = {mu1!r}",
    ]
    if kind != "parent":
        lines += [f"t2 = {s2 * t2!r}", f"delta2 = {d2!r}", f"mu2 = {mu2!r}"]
    lines += ["[lattice]"]
    if kind == "mkc-perpendicular":
        # slab sides start at 3
        lines += [f"lx = {length + 1}", f"ly = {length + 2}"]
    else:
        lines += [f"l = {length}"]
    lines += ["[task]", "name = spectrum", "[output]", f"format = {fmt}"]
    cfg = parse_config("\n".join(lines) + "\n")
    assert parse_config(serialize_config(cfg)) == cfg
    # serialization is idempotent, not just round-trip stable
    assert serialize_config(parse_config(serialize_config(cfg))) == serialize_config(cfg)


def test_all_tasks_are_dispatchable_names():
    assert set(tasks._DISPATCH) == set(TASKS) and len(TASKS) == 12
    for record in _TASKS.values():
        assert set(record.kinds) <= set(MODEL_KINDS)
        assert set(record.lattice) <= set(MODEL_KINDS)
