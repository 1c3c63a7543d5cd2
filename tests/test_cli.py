"""End-to-end command-line behavior: exit codes, formats, determinism."""

import ast
import io
import json
import math
import os
import subprocess
import sys
import tokenize
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (
    WindingCurve,
    apply_onsite_disorder,
    build_chain,
    build_slab,
    dense_levels,
    dense_solver,
    dense_wannier_parallel,
    dense_wannier_parent,
    dense_wannier_perp,
    plain_csv,
    sampled_winding_parallel,
    sampled_winding_perp,
    winding_number,
)
from mkc import __version__, cli, disorder
from mkc.boundary import (
    classify_zero_modes,
    kc_majorana_points,
    perp_obc_gapless_points,
    quantization_points,
)
from mkc.cli import main
from mkc.config import TASKS, parse_config
from mkc.disorder import CHILD_CHANNELS, DisorderSpec
from mkc.lattice import PERIODIC, ChainLattice, SlabLattice, chain_levels
from mkc.models import (
    PAULI,
    PARALLEL,
    ChildSpec,
    ParentParams,
    dirac_expansion_parallel,
    group_velocity_perp,
    parent_bloch,
)
from mkc.tasks import ChiralLevels, Rows, run_task
from mkc.topology import (
    center_distance,
    wannier_center_parent,
    wannier_centers_parallel,
    wannier_centers_perp,
)

PARENT_SPECTRUM = """\
[model]
kind = parent
t1 = 1.0
delta1 = 0.5
mu1 = 0.25

[lattice]
l = 8

[task]
name = spectrum
"""

CHILD_WANNIER = """\
[model]
kind = mkc-parallel
t1 = 1.0
delta1 = 1.0
mu1 = 0.5
t2 = 1.0
delta2 = 1.0
mu2 = 3.0

[task]
name = wannier
loop-points = 41
"""


def test_perpendicular_disorder_matches_dense_slab(tmp_path, capsys):
    text = """\
[model]
kind = mkc-perpendicular
t1 = 1.0
delta1 = 0.7
mu1 = 0.0
t2 = -0.8
delta2 = 1.1
mu2 = 0.0

[lattice]
lx = 3
ly = 4
bcy = periodic

[task]
name = disorder
realizations = 3
seed = 5
mu-min = 0.0
mu-max = 3.0
mu-points = 2
"""
    rc = main(["disorder", "--config", _config(tmp_path, text)])
    out, _ = capsys.readouterr()
    assert rc == 0
    lines = [l for l in out.splitlines() if not l.startswith("# ")]
    assert lines[0] == "channel,mu,displacement,threshold,verdict"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == len(CHILD_CHANNELS) * 2

    # dense recomputation: every disordered slab matrix solved whole
    lat = SlabLattice(3, 4, bcy="periodic")
    for channel, mu, disp, threshold, verdict in rows:
        mu = float(mu)
        spec = ChildSpec(
            ParentParams(1.0, 0.7, mu), ParentParams(-0.8, 1.1, mu), "perpendicular"
        )
        h = build_slab(spec, lat)
        clean = np.linalg.eigvalsh(h)
        assert float(threshold) == pytest.approx(1e-6 * (clean[-1] - clean[0]), rel=1e-12)
        n_zero = int((np.abs(clean) < 1e-8).sum())
        if n_zero == 0:
            assert (disp, verdict) == ("", "no-zero-modes")
            continue
        ens = DisorderSpec(channel, 0.2, 3, 5)
        worst = max(
            np.sort(np.abs(np.linalg.eigvalsh(apply_onsite_disorder(h, ens, r))))[n_zero - 1]
            for r in range(3)
        )
        assert abs(float(disp) - worst) < 1e-10, channel
        assert verdict == ("robust" if worst < float(threshold) else "broken"), channel
    # the slab's edge bands split under every channel at this size
    assert {r[4] for r in rows} == {"broken", "no-zero-modes"}


def _config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_spectrum_csv_to_stdout(tmp_path, capsys):
    rc = main(["spectrum", "--config", _config(tmp_path, PARENT_SPECTRUM)])
    out, err = capsys.readouterr()
    assert rc == 0
    lines = out.splitlines()
    comments = [l for l in lines if l.startswith("# ")]
    assert "# model.kind = parent" in comments
    assert "# lattice.l = 8" in comments
    assert "# task.name = spectrum" in comments
    # execution detail stays out of the scientific echo
    assert not any("threads" in c or "output" in c for c in comments)
    header = lines[len(comments)]
    assert header == "index,energy"
    data = lines[len(comments) + 1 :]
    assert len(data) == 16
    for row in data:
        idx, energy = row.split(",")
        int(idx), float(energy)
    assert out.endswith("\n")
    # timing goes to stderr only
    assert "finished in" in err and "finished in" not in out


def _csv(cfg, rows, columns=("a", "b", "c", "d", "e", "f", "g")):
    out = io.StringIO()
    cli.render_csv(cfg, {"columns": list(columns), "rows": rows}, out)
    return out.getvalue()


def test_render_csv_blocks_match_per_cell_format():
    cfg = parse_config(PARENT_SPECTRUM)
    head = _csv(cfg, Rows())
    assert head.endswith("\na,b,c,d,e,f,g\n")
    rows = Rows()
    # cells that compare equal but print differently, shared and down columns
    rows.add(0.0, -0.0, 1, True, 1.0, "", None)
    rows.add(-0.0, [0.0, -0.0, 0.5], range(3), [1, 2**70, -1], [True, False, True])
    rows.add([1, True, 1.0, 0, -0.0, "", None], "%s")
    # a % in shared and column str cells, rows of differing width, an empty row
    rows.add("100%", ["x", "%s", "%d", "%%"], 0.1)
    rows.add("%")
    rows.add()
    rows.add(None, [], range(0))
    rows.add([False, None], ["", "y"], [0.25, 1e-300])
    # level columns: a -0.0 magnitude, cuts that keep one more negative, the same range twice
    rows.add("lv", range(4), ChiralLevels(np.array([-0.0, 0.0])), 1e-17)
    rows.add(range(3), ChiralLevels(np.array([0.0, 0.5, 2.0]), 3), "%")
    rows.add(range(2), ChiralLevels(np.array([1e-300]), 5), [1, 2])
    assert len(rows) == 1 + 3 + 7 + 4 + 1 + 1 + 0 + 2 + 4 + 3 + 2 == len(list(rows))
    assert _csv(cfg, rows) == plain_csv(cfg, {"columns": list("abcdefg"), "rows": rows})
    assert _csv(cfg, rows).endswith(
        "\nlv,0,-0,1.0000000000000001e-17\nlv,1,-0,1.0000000000000001e-17"
        "\nlv,2,0,1.0000000000000001e-17\nlv,3,0,1.0000000000000001e-17"
        "\n0,-0.5,%\n1,-0,%\n2,0,%"
        "\n0,-1e-300,1\n1,1e-300,2\n"
    )


def test_level_runs_render_the_per_cell_bytes():
    # a ChiralLevels column formats each run of equal magnitudes once, with its
    # negative: exact zeros, ties, doubled ring levels, NaNs (whose negative
    # prints as nan) and n-modes cuts through a run
    cfg = parse_config(PARENT_SPECTRUM)
    third = 1.0 / 3.0
    m = np.array([0.0, 0.0, 0.0, 0.25, 0.25, third, third, third, 2.0, np.nan, np.nan])
    ring = chain_levels(ChildSpec(ParentParams(1.0, 0.6, 0.4), ParentParams(0.8, 1.1, -0.3), PARALLEL),
                        ChainLattice(8, PERIODIC))
    assert np.any(ring[1:] == ring[:-1])
    rows = Rows()
    for n_modes in (None, 1, 2, 5, 6, 7, 8, 9, 16, 30):
        levels = ChiralLevels(m, n_modes)
        rows.add(n_modes, range(len(levels)), levels)
    rows.add("ring", range(2 * ring.size), ChiralLevels(ring), 0.5)
    rows.add("nan", range(2), ChiralLevels(np.array([np.nan])))
    payload = {"columns": ["a", "b", "c", "d"], "rows": rows}
    _check_writers(cfg, payload)
    text = _csv(cfg, rows, payload["columns"])
    # two NaN pairs in each of the two uncut columns of m, one in the last block
    assert "-nan" not in text and text.count(",nan\n") == 4 + 4 + 2


def test_rows_index_returns_a_live_row_and_rejects_ragged_blocks():
    cfg = parse_config(PARENT_SPECTRUM)
    rows = Rows()
    rows.add("a", range(3), [0.5, 1.5, 2.5])
    rows.add("b", range(2), [3.5, 4.5])
    rows[3][2] += 1.0
    assert list(rows) == [
        ["a", 0, 0.5], ["a", 1, 1.5], ["a", 2, 2.5], ["b", 0, 4.5], ["b", 1, 4.5],
    ]
    assert _csv(cfg, rows, "xyz").endswith("\nb,0,4.5\nb,1,4.5\n")
    with pytest.raises(ValueError, match="differ in length"):
        rows.add(range(2), [1.0])


def test_chiral_levels_cut_whole_pairs_nearest_zero():
    # the n_modes levels nearest zero of the ascending -m[::-1], m: whole
    # +-E pairs, and for odd n_modes the negative member of the next pair
    m = np.array([0.0, 0.25, 0.25, 1.0])
    full = [-1.0, -0.25, -0.25, -0.0, 0.0, 0.25, 0.25, 1.0]
    assert list(ChiralLevels(m)) == full
    for n_modes in range(1, 11):
        levels = ChiralLevels(m, n_modes)
        neg, pos = min((n_modes + 1) // 2, 4), min(n_modes // 2, 4)
        assert (levels.negatives, levels.positives, len(levels)) == (neg, pos, neg + pos)
        assert list(levels) == full[4 - neg : 4 + pos]
        assert all(type(v) is float for v in levels)


def _check_writers(cfg, payload):
    """render_csv writes plain_csv's bytes, and render_json those of one json.dumps."""
    out = io.StringIO()
    cli.render_csv(cfg, payload, out)
    assert out.getvalue() == plain_csv(cfg, payload)
    out = io.StringIO()
    cli.render_json(cfg, payload, out)
    doc = {
        "config": cfg.echo(),
        "payload": {"columns": payload["columns"], "rows": list(payload["rows"])},
        "task": cfg.task,
        "version": __version__,
    }
    assert out.getvalue() == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _parent_lines(i, t, delta, mu):
    return f"t{i} = {t!r}\ndelta{i} = {delta!r}\nmu{i} = {mu!r}\n"


@st.composite
def _writer_case(draw):
    """(task, config text, n-modes): sweep-mu and spectrum runs, many at dead points.

    A dead parent has t = delta and mu = 0; a grid starting at mu = 0
    puts a dead chain's levels at exact zeros there.
    """
    num = st.floats(-3.0, 3.0)
    sign = st.sampled_from([-1.0, 1.0])

    def parent():
        if draw(st.booleans()):
            t = draw(sign)
            return t, t * draw(sign), 0.0
        return draw(num), draw(num), draw(num)

    task = draw(st.sampled_from(["sweep-mu", "spectrum"]))
    slab = ["slab"] if task == "spectrum" else []
    template = draw(st.sampled_from(["parent", "child", "sign-mixed"] + slab))
    p1 = parent()
    if template == "parent":
        text = "[model]\nkind = parent\n" + _parent_lines(1, *p1)
    else:
        p2 = (-p1[0], p1[1], p1[2]) if template == "sign-mixed" else parent()
        kind = "mkc-perpendicular" if template == "slab" else "mkc-parallel"
        text = f"[model]\nkind = {kind}\n" + _parent_lines(1, *p1) + _parent_lines(2, *p2)
    bc = st.sampled_from(["open", "periodic"])
    if template == "slab":
        text += f"[lattice]\nlx = {draw(st.integers(3, 4))}\nly = {draw(st.integers(3, 4))}\n"
        text += f"bcx = {draw(bc)}\nbcy = {draw(bc)}\n"
    else:
        text += f"[lattice]\nl = {draw(st.integers(2 if template == 'parent' else 3, 7))}\n"
    n_modes = None
    if task == "spectrum":
        if template != "slab":
            text += f"bc = {draw(bc)}\n"
    else:
        grid = [draw(st.one_of(st.just(0.0), num)) for _ in range(2)]
        text += f"[task]\nmu-min = {grid[0]!r}\nmu-max = {grid[1]!r}\n"
        text += f"mu-points = {draw(st.integers(1, 3))}\n"
        text += f"link = {draw(st.sampled_from(['equal', 'opposite', 'fixed']))}\n"
        n_modes = draw(st.one_of(st.none(), st.integers(1, 30)))
        if n_modes is not None:
            text += f"n-modes = {n_modes}\n"
    return task, text, n_modes


@settings(max_examples=80, deadline=None)
@given(case=_writer_case())
def test_writers_match_plain_oracle(case):
    task, text, n_modes = case
    cfg = parse_config(text, cli_task=task)
    payload = run_task(cfg)
    _check_writers(cfg, payload)
    # each level column iterates as the sorted +-E spectrum, cut as
    # lattice sweeps cut it before: negatives (-0.0 included) then the rest
    for cells, _ in payload["rows"].blocks:
        col = cells[-1]
        m = np.array(col.magnitudes)
        ev = np.sort(np.concatenate([-m, m]))
        if n_modes is not None:
            upper = ev[ev.size // 2 :]
            ev = np.concatenate([-upper[: (n_modes + 1) // 2][::-1], upper[: n_modes // 2]])
        got = list(col)
        assert got == ev.tolist()
        signs = [math.copysign(1.0, v) for v in got]
        assert signs == [-1.0] * col.negatives + [1.0] * col.positives


def test_tasks_leave_numpy_random_ma_and_fft_unloaded(tmp_path):
    # about 6, 1.3 and 0.4 MB of peak RSS that no task needs: the disorder
    # draws, the frame block picker and the periodic levels avoid them;
    # every task kind runs once
    chain = _ZERO_CHILD + "[lattice]\nl = 8\n[task]\nrealizations = 1\n"
    ring = PARENT_SPECTRUM.replace("l = 8", "l = 8\nbc = periodic")
    slab = _config(tmp_path, _ZERO_CHILD.replace("parallel", "perpendicular") + _SMALL_SLAB, "slab.cfg")
    perpendicular = _config(tmp_path, _PERPENDICULAR_HEAD + _SMALL_SLAB, "perpendicular.cfg")
    texts = {
        "sweep-mu": _PARALLEL_HEAD + _L6 + "[task]\nmu-min = -3\nmu-max = 3\nmu-points = 5\n",
        "sweep-length": _ZERO_PARENT + "[task]\nl-min = 4\nl-max = 8\nbc = periodic\n",
        "quantization": _MIXED_HEAD + "[lattice]\nl = 12\n",
        "wannier": CHILD_WANNIER,
        "winding": _PARALLEL_HEAD,
        "majorana-points": _MIXED_HEAD + "[lattice]\nl = 12\n",
        "dirac": _PARALLEL_HEAD,
    }
    runs = [
        ("disorder", _config(tmp_path, chain, "chain.cfg")),
        ("spectrum", _config(tmp_path, ring, "ring.cfg")),
        ("density", slab),
        ("classify", slab),
        ("symmetry-check", perpendicular),
        ("winding", perpendicular),
    ] + [(task, _config(tmp_path, text, f"{task}.cfg")) for task, text in texts.items()]
    assert {task for task, _ in runs} == set(TASKS)
    code = "\n".join([
        "import os, sys",
        "from mkc.cli import main",
        f"for task, path in {runs!r}:",
        "    assert main([task, '--config', path, '--out', os.devnull]) == 0",
        "heavy = ('numpy.random', 'numpy.ma', 'numpy.fft')",
        "print(sorted(m for m in sys.modules if '.'.join(m.split('.')[:2]) in heavy))",
    ])
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_the_analytic_library_unloaded():
    # no task reads the closed-form edge modes, so the CLI does not compile them
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import mkc.cli, sys; assert 'mkc.analytic' not in sys.modules"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# CPython's parser doubles its token array at each power of two from 4096
# tokens, and the benchmark's processes compile every module they import:
# a module that crosses a step costs about 0.23 MB more compile memory
_PARSER_STEPS = {"lattice.py": 8192}


def test_cli_modules_stay_under_their_parser_token_step():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import mkc.cli, sys; print(sorted("
         "m.__file__ for n, m in sys.modules.items() if n.split('.')[0] == 'mkc'))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    files = ast.literal_eval(proc.stdout)
    assert any(f.endswith("lattice.py") for f in files)
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    for path in files:
        with open(path, "rb") as fh:
            count = sum(t.type not in skipped for t in tokenize.tokenize(fh.readline))
        step = _PARSER_STEPS.get(os.path.basename(path), 4096)
        assert count < step, f"{path} holds {count} parser tokens, {step} is the next step"


def test_negative_seed_keys_the_stream_with_seed_mod_2_64(tmp_path, capsys):
    lat, parent = ChainLattice(8), ParentParams(1.0, 1.0, 0.0)
    h = build_chain(parent, lat)
    for seed in (-1, -(2**63)):
        task = f"[task]\nchannel = x\nrealizations = 2\nseed = {seed}\n"
        text = _ZERO_PARENT + "[lattice]\nl = 8\n" + task
        rc = main(["disorder", "--config", _config(tmp_path, text)])
        out, _ = capsys.readouterr()
        assert rc == 0
        row = [l for l in out.splitlines() if not l.startswith("# ")][1].split(",")
        worst = 0.0
        for r in range(2):
            key = np.array([seed % 2**64, r], dtype=np.uint64)
            v = np.random.Generator(np.random.Philox(key=key)).uniform(-0.2, 0.2, 8)
            levels = np.sort(np.abs(np.linalg.eigvalsh(h + np.kron(np.diag(v), PAULI["x"]))))
            worst = max(worst, levels[1])  # the dead parent's two end modes
        assert abs(float(row[2]) - worst) < 1e-12, seed


def test_module_entry_point_runs(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    text = _MIXED_HEAD + "[lattice]\nl = 7\n"
    proc = subprocess.run(
        [sys.executable, "-m", "mkc.cli", "majorana-points", "--config", _config(tmp_path, text)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert [l for l in proc.stdout.splitlines() if not l.startswith("# ")][0] == (
        "mu,degeneracy,provenance"
    )


def test_out_file_and_json_format(tmp_path, capsys):
    target = tmp_path / "res.json"
    rc = main([
        "spectrum",
        "--config", _config(tmp_path, PARENT_SPECTRUM),
        "--out", str(target),
        "--format", "json",
    ])
    assert rc == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert set(doc) == {"config", "payload", "task", "version"}
    assert doc["task"] == "spectrum"
    assert doc["payload"]["columns"] == ["index", "energy"]
    assert len(doc["payload"]["rows"]) == 16
    # emitted text uses sorted keys, so re-serializing reproduces it
    assert target.read_text() == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_config_error_exits_2(tmp_path, capsys):
    bad = PARENT_SPECTRUM.replace("l = 8", "l = 8\nlz = 3")
    rc = main(["spectrum", "--config", _config(tmp_path, bad)])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "config error" in err and "[lattice] unknown key lz" in err


def test_task_name_mismatch_exits_2(tmp_path, capsys):
    rc = main(["winding", "--config", _config(tmp_path, CHILD_WANNIER)])
    _, err = capsys.readouterr()
    assert rc == 2 and "command line says" in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["spectrum", "--config", str(tmp_path / "absent.cfg")])
    _, err = capsys.readouterr()
    assert rc == 2 and "cannot read config" in err


# a critical first parent drags the perpendicular winding curves through
# the origin
_CRITICAL_WINDING = """\
[model]
kind = mkc-perpendicular
t1 = 1.0
delta1 = 1.0
mu1 = -2.0
t2 = 1.0
delta2 = 1.0
mu2 = 0.3

[lattice]
lx = 4
ly = 4

[task]
name = winding
samples = 512
"""


def test_numerical_error_exits_3(tmp_path, capsys):
    rc = main(["winding", "--config", _config(tmp_path, _CRITICAL_WINDING)])
    _, err = capsys.readouterr()
    assert rc == 3
    assert "numerical error" in err and "CriticalCurveError" in err


@pytest.mark.parametrize(
    "data",
    [b"[model]\nkind = parent\xff\n", b"# caf\xc3\n[model]\nkind = parent\n"],
    ids=["invalid-start-byte", "truncated-sequence"],
)
def test_config_that_is_not_utf8_exits_2(tmp_path, capsys, data):
    path = tmp_path / "latin.cfg"
    path.write_bytes(data)
    rc = main(["spectrum", "--config", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("mkc: config error: cannot read config")


def test_config_with_a_utf8_byte_order_mark_runs(tmp_path, capsys):
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + PARENT_SPECTRUM.encode("utf-8"))
    assert main(["spectrum", "--config", str(path)]) == 0
    bom_out = capsys.readouterr().out
    assert main(["spectrum", "--config", _config(tmp_path, PARENT_SPECTRUM)]) == 0
    assert bom_out == capsys.readouterr().out


def test_numerical_error_creates_no_output_file(tmp_path, capsys):
    target = tmp_path / "winding.csv"
    rc = main(["winding", "--config", _config(tmp_path, _CRITICAL_WINDING), "--out", str(target)])
    out, _ = capsys.readouterr()
    assert rc == 3 and out == "" and not target.exists()


def test_thread_knobs_are_gone(tmp_path, capsys, monkeypatch):
    cfg = _config(tmp_path, CHILD_WANNIER)
    with pytest.raises(SystemExit) as exit_:
        main(["wannier", "--config", cfg, "--threads", "1"])
    assert exit_.value.code == 2 and "--threads" in capsys.readouterr().err
    keyed = _config(tmp_path, CHILD_WANNIER + "threads = 2\n", name="keyed.cfg")
    rc = main(["wannier", "--config", keyed])
    assert rc == 2 and "[task] unknown key threads" in capsys.readouterr().err
    # the environment is not read: a value that once exited 2 changes no byte
    paths = [tmp_path / f"r{i}.csv" for i in range(2)]
    assert main(["wannier", "--config", cfg, "--out", str(paths[0])]) == 0
    monkeypatch.setenv("MKC_THREADS", "many")
    assert main(["wannier", "--config", cfg, "--out", str(paths[1])]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


_PARALLEL_HEAD = """\
[model]
kind = mkc-parallel
t1 = 1.0
delta1 = 1.0
mu1 = 0.5
t2 = 1.0
delta2 = 1.0
mu2 = 3.0
"""

_PERPENDICULAR_HEAD = _PARALLEL_HEAD.replace("mkc-parallel", "mkc-perpendicular")

_NO_MU_POINTS = "[lattice]\nl = 6\n[task]\nmu-min = -1\nmu-max = 1\nmu-points = 0\n"
_NO_N_MODES = _NO_MU_POINTS.replace("mu-points = 0", "mu-points = 3\nn-modes = 0")

# the sign-mixed class that majorana-points accepts on a chain
_MIXED_HEAD = """\
[model]
kind = mkc-parallel
t1 = 1.0
delta1 = 0.5
mu1 = 0.0
t2 = -1.0
delta2 = 0.5
mu2 = 0.0
"""


# a child and a parent at mu = 0 (end zero modes on 6 sites), and at
# mu = 3 (no zero modes)
_ZERO_CHILD = _PARALLEL_HEAD.replace("mu1 = 0.5", "mu1 = 0.0").replace("mu2 = 3.0", "mu2 = 0.0")
_TRIVIAL_CHILD = _PARALLEL_HEAD.replace("mu1 = 0.5", "mu1 = 3.0")
_ZERO_PARENT = "[model]\nkind = parent\nt1 = 1.0\ndelta1 = 1.0\nmu1 = 0.0\n"
_TRIVIAL_PARENT = _ZERO_PARENT.replace("mu1 = 0.0", "mu1 = 3.0")
_L6 = "[lattice]\nl = 6\n"
_L12 = "[lattice]\nl = 12\n"
_SMALL_SLAB = "[lattice]\nlx = 4\nly = 5\n"


@pytest.mark.parametrize(
    "task, text",
    [
        ("spectrum", PARENT_SPECTRUM.replace("l = 8", "l = 0")),
        ("spectrum", _PARALLEL_HEAD + "[lattice]\nl = 2\n"),
        ("density", _PERPENDICULAR_HEAD + "[lattice]\nlx = 2\nly = 5\n"),
        ("symmetry-check", _PARALLEL_HEAD + "[task]\nk-points = 0\n"),
        ("wannier", _PARALLEL_HEAD + "[task]\nloop-points = 0\n"),
        ("wannier", _PARALLEL_HEAD + "[task]\nloop-points = 3\n"),
        ("winding", _PARALLEL_HEAD + "[task]\nsamples = 2\n"),
        ("sweep-length", _PARALLEL_HEAD + "[task]\nl-min = 4\nl-max = 6\nl-step = 0\n"),
        ("sweep-length", _PARALLEL_HEAD + "[task]\nl-min = 4\nl-max = 6\nl-step = -1\n"),
        ("quantization", _PARALLEL_HEAD + "[lattice]\nl = 1\n"),
        ("majorana-points", _MIXED_HEAD + "[lattice]\nl = 1\n"),
        ("sweep-mu", _PARALLEL_HEAD + _NO_MU_POINTS),
        ("disorder", _PARALLEL_HEAD + _NO_MU_POINTS),
        ("sweep-mu", _PARALLEL_HEAD + _NO_N_MODES),
        ("sweep-length", _PARALLEL_HEAD + "[task]\nl-min = 4\nl-max = 6\nn-modes = -3\n"),
        ("quantization", _MIXED_HEAD + "[lattice]\nl = 6\n[task]\ngrid-points = -5\n"),
        ("sweep-length", _PARALLEL_HEAD + "[task]\nl-min = 6\nl-max = 4\n"),
        ("quantization", _MIXED_HEAD + "[lattice]\nl = 6\n[task]\nmu-min = 0.5\nmu-max = 0.5\n"),
        ("spectrum", PARENT_SPECTRUM.replace("t1 = 1.0", "t1 = nan")),
        ("spectrum", PARENT_SPECTRUM.replace("mu1 = 0.25", "mu1 = inf")),
        ("sweep-mu", _PARALLEL_HEAD + _L6 + "[task]\nmu-min = nan\nmu-max = 1\nmu-points = 3\n"),
        ("quantization", _MIXED_HEAD + _L6 + "[task]\nmu-min = 0.5\nmu-max = inf\n"),
        ("disorder", _ZERO_CHILD + _L6 + "[task]\namplitude = nan\n"),
        ("wannier", _PERPENDICULAR_HEAD + "[task]\nfixed-momentum = inf\n"),
        ("density", _ZERO_CHILD + _L6 + "[task]\nzero-tol = nan\n"),
        ("dirac", _PERPENDICULAR_HEAD + "[task]\nkx = nan\n"),
        ("disorder", _ZERO_CHILD + _L6 + "[task]\nchannel = x\n"),
        ("disorder", _ZERO_PARENT + _L6 + "[task]\nchannel = xy\n"),
        ("disorder", _TRIVIAL_CHILD + _L6 + "[task]\nchannel = x\n"),
        ("disorder", _TRIVIAL_PARENT + _L6 + "[task]\nchannel = xy\n"),
        ("disorder", _TRIVIAL_CHILD + _L6 + "[task]\nrealizations = 0\n"),
        ("majorana-points", _PARALLEL_HEAD + _L6),
        ("majorana-points", _MIXED_HEAD + _L6 + "bc = periodic\n"),
        ("quantization", _MIXED_HEAD + _L6 + "bc = periodic\n"),
        ("majorana-points", _PERPENDICULAR_HEAD + "[lattice]\nlx = 4\nly = 5\nbcy = periodic\n"),
        ("disorder", _ZERO_CHILD + _L6 + "[task]\namplitude = 1e308\n"),
        ("disorder", _ZERO_CHILD + _L6 + "[task]\nseed = 9223372036854775808\n"),
        ("disorder", _ZERO_CHILD + _L6 + "[task]\nseed = 18446744073709551615\n"),
        ("disorder", _ZERO_CHILD + _L6 + "[task]\nseed = 18446744073709551616\n"),
        ("disorder", _ZERO_CHILD + _L6 + "[task]\nseed = -9223372036854775809\n"),
        ("spectrum", PARENT_SPECTRUM + "\n[output]\npath = /nonexistent/dir/x.csv\n"),
        ("spectrum", PARENT_SPECTRUM + "\n[output]\npath =\n"),
        ("spectrum", PARENT_SPECTRUM + "\n[output]\npath = .\n"),
        ("density", _ZERO_CHILD + _L12 + "[task]\nzero-tol = -1\n"),
        ("density", _ZERO_CHILD + _L12 + "[task]\nzero-tol = 0\n"),
        ("classify", _ZERO_CHILD + _L12 + "[task]\nzero-tol = -1\n"),
        ("disorder", _ZERO_CHILD + _L12 + "[task]\nzero-tol = 0\nrealizations = 1\n"),
        ("quantization", _MIXED_HEAD + _L6 + "[task]\nmu-min = 0.5\n"),
        ("disorder", _ZERO_CHILD + _L6 + "[task]\nmu-min = -1\nmu-max = 1\n"),
        ("wannier", _PARALLEL_HEAD + "[lattice]\nl = 0\n"),
    ],
    ids=["l-0", "l-2-range-2-hopping", "lx-2", "k-points-0", "loop-points-0",
         "loop-points-3", "samples-2", "l-step-0", "l-step-negative", "l-1-quantization",
         "l-1-majorana-points", "mu-points-0-sweep-mu", "mu-points-0-disorder",
         "n-modes-0-sweep-mu", "n-modes-negative-sweep-length", "grid-points-negative",
         "l-min-above-l-max", "quantization-empty-mu-range", "t1-nan", "mu1-inf",
         "sweep-mu-mu-min-nan", "quantization-mu-max-inf", "disorder-amplitude-nan",
         "wannier-fixed-momentum-inf", "density-zero-tol-nan", "dirac-kx-nan",
         "parent-channel-on-child", "child-channel-on-parent",
         "parent-channel-on-trivial-child", "child-channel-on-trivial-parent",
         "realizations-0", "majorana-points-generic-child", "majorana-points-periodic",
         "quantization-periodic", "majorana-points-periodic-bcy", "disorder-amplitude-1e308",
         "seed-2**63", "seed-2**64-1", "seed-2**64", "seed-below-2**63",
         "output-path-in-missing-dir", "output-path-empty", "output-path-directory",
         "density-zero-tol-negative", "density-zero-tol-0", "classify-zero-tol-negative",
         "disorder-zero-tol-0", "quantization-mu-min-alone", "disorder-mu-points-missing",
         "wannier-unread-lattice-l-0"],
)
def test_out_of_range_sizes_and_counts_exit_2(tmp_path, capsys, task, text):
    rc = main([task, "--config", _config(tmp_path, text)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("mkc: config error:")


@pytest.mark.parametrize(
    "task, text, message",
    [
        ("wannier", _PARALLEL_HEAD + "[lattice]\nl = 0\n", "[lattice] l: must be >= 1, got 0"),
        ("spectrum", PARENT_SPECTRUM.replace("l = 8", "l = 0"), "[lattice] l: must be >= 1, got 0"),
        ("density", _PERPENDICULAR_HEAD + "[lattice]\nlx = 2\nly = 5\n", "[lattice] lx: must be >= 3, got 2"),
        ("density", _PERPENDICULAR_HEAD + "[lattice]\nlx = 4\nly = -1\n", "[lattice] ly: must be >= 3, got -1"),
    ],
    ids=["wannier-l-0", "spectrum-l-0", "lx-2", "ly-negative"],
)
def test_lattice_size_errors_name_their_key(tmp_path, capsys, task, text, message):
    rc = main([task, "--config", _config(tmp_path, text)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == f"mkc: config error: {message}\n"


def test_perpendicular_symmetry_check_runs_on_kx_ky_grid(tmp_path, capsys):
    text = """\
[model]
kind = mkc-perpendicular
t1 = 0.8
delta1 = -1.2
mu1 = 0.5
t2 = 1.3
delta2 = 0.6
mu2 = 2.5

[task]
name = symmetry-check
k-points = 16
"""
    rc = main(["symmetry-check", "--config", _config(tmp_path, text)])
    out, _ = capsys.readouterr()
    assert rc == 0
    lines = [l for l in out.splitlines() if not l.startswith("# ")]
    assert lines[0] == "symmetry,residual"
    rows = dict(l.split(",") for l in lines[1:])
    assert set(rows) == {"T", "P1", "C1", "P2", "C2", "U"}
    assert max(float(r) for r in rows.values()) < 1e-13


def _mu_column(tmp_path, capsys, task, text):
    rc = main([task, "--config", _config(tmp_path, text, name=f"{task}.cfg")])
    out, _ = capsys.readouterr()
    assert rc == 0
    lines = [l for l in out.splitlines() if not l.startswith("# ")]
    assert lines[0] == "mu,degeneracy,provenance"
    return np.array([float(l.split(",")[0]) for l in lines[1:]])


def test_quantization_lists_every_sign_mixed_point_at_odd_l(tmp_path, capsys):
    # at l = 31 the odd-sites point n=1/(L+3), mu = +-1.7246621841757, sits
    # 9.5e-4 from its even-sites neighbour, inside one cell of a 2001-point
    # scan of the window, which lists 60 rows
    text = _MIXED_HEAD + "[lattice]\nl = 31\n"
    got = _mu_column(tmp_path, capsys, "quantization", text)
    want = _mu_column(tmp_path, capsys, "majorana-points", text)
    assert got.size == want.size == 62
    assert np.abs(got - want).max() < 1e-9
    assert np.abs(np.abs(got) - 1.7246621841757).min() < 1e-12


def test_quantization_on_two_sites(tmp_path, capsys):
    # the shortest chain the task takes; its points are the closed forms at l = 2
    text = _MIXED_HEAD + "[lattice]\nl = 2\n"
    got = _mu_column(tmp_path, capsys, "quantization", text)
    want = _mu_column(tmp_path, capsys, "majorana-points", text)
    assert got.size == want.size == 2
    assert np.abs(got - want).max() < 1e-9


# --- every task through main(), against the library call it wraps or a
# dense solve

_README_CHILD = _PARALLEL_HEAD.replace("mu1 = 0.5", "mu1 = 0.3").replace("mu2 = 3.0", "mu2 = 0.9")
# away from |t| = |Delta|, so that no cut at n-modes splits a degenerate level
_GENERIC_CHILD = _README_CHILD.replace("delta1 = 1.0", "delta1 = 0.6")
_PERIMETER_SLAB = _PERPENDICULAR_HEAD.replace("mu1 = 0.5", "mu1 = 0.0").replace(
    "mu2 = 3.0", "mu2 = 0.0"
)
_SLAB_4x5 = "[lattice]\nlx = 4\nly = 5\n"
_SWEEP = "[task]\nmu-min = -1\nmu-max = 1\nmu-points = 3\n"
_PARENT_HEAD = PARENT_SPECTRUM[: PARENT_SPECTRUM.index("[lattice]")]


def _dense_levels(model, lat, n_modes=None):
    """Ascending dense levels; n_modes keeps +-E pairs as tasks.ChiralLevels does.

    That is the (n_modes + 1) // 2 levels of the lower half and the
    n_modes // 2 of the upper half nearest zero, so a cut through an exactly
    degenerate |E| group does not depend on how eigh's rounding orders it.
    """
    ev = dense_levels(build_chain(model, lat))
    if n_modes is not None:
        half = ev.size // 2
        lower = ev[max(half - (n_modes + 1) // 2, 0) : half]
        ev = np.concatenate([lower, ev[half:][: n_modes // 2]])
    return ev


def _check_parent_winding(cfg, rows):
    # the parent curve read off parent_bloch = -M s_z + R s_y
    h = parent_bloch(cfg.model, np.linspace(0.0, 2.0 * np.pi, 4097))
    w = winding_number(WindingCurve(dy=h[:, 1, 0].imag, dz=h[:, 0, 0].real))
    assert abs(w) == 1  # |mu| < 2|t|
    assert rows == [["k", "parent", "", w]]


def _check_parallel_winding(cfg, rows):
    # the README's (2, 0)
    assert rows == [["k", "component-1", "", 2], ["k", "component-2", "", 0]]
    assert sampled_winding_parallel(cfg.model, cfg.options["samples"]) == (2, 0)


def _check_perpendicular_winding(cfg, rows):
    lat = cfg.lattice
    table = sampled_winding_perp(cfg.model, lat.Lx, lat.Ly, cfg.options["samples"])
    want = []
    for loop, recs, n in (("kx", table["rows"], lat.Ly), ("ky", table["columns"], lat.Lx)):
        for m, rec in enumerate(recs):
            want += [[loop, "component-1", 2 * np.pi * m / n, rec["w1"]],
                     [loop, "component-2", 2 * np.pi * m / n, rec["w2"]]]
    assert [[r[0], r[1], float(r[2]), r[3]] for r in rows] == want


@pytest.mark.parametrize(
    "text",
    [
        # a Delta = 0 metal: its curve crosses the origin between samples
        "[model]\nkind = parent\nt1 = 1\ndelta1 = 0\nmu1 = 0.3\n"
        "[task]\nname = winding\nsamples = 1023\n",
        # parent 2 closes at k = pi, which an odd grid never samples
        _PERPENDICULAR_HEAD.replace("mu2 = 3.0", "mu2 = 2.0")
        + "[lattice]\nlx = 4\nly = 4\n[task]\nname = winding\nsamples = 1023\n",
    ],
    ids=["parent-metal", "perpendicular-odd-grid"],
)
def test_critical_factor_exits_3_at_any_sample_count(tmp_path, capsys, text):
    rc = main(["winding", "--config", _config(tmp_path, text)])
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert "CriticalCurveError" in err


def test_wannier_on_a_critical_parent_exits_3(tmp_path, capsys):
    for params in (
        "t1 = 1\ndelta1 = 0.5\nmu1 = 2.0",   # closes at k = pi, which 301 loop points never sample
        "t1 = 1\ndelta1 = 1e-13\nmu1 = 0",   # near a metal: 2e-13 from the origin at k = pi/2
    ):
        text = f"[model]\nkind = parent\n{params}\n[task]\nloop-points = 301\n"
        rc = main(["wannier", "--config", _config(tmp_path, text)])
        out, err = capsys.readouterr()
        assert rc == 3 and out == ""
        assert "CriticalCurveError" in err


@pytest.mark.parametrize(
    "task, key, row",
    [
        ("wannier", "loop-points", "parent loop k:0..2pi,0,0.5"),
        ("winding", "samples", "k,parent,,-1"),
    ],
)
def test_undersampled_parent_loop_exits_0(tmp_path, capsys, task, key, row):
    # a topological parent (winding -1) whose curve 5 samples read as winding 0;
    # the key is echoed, and the invariant comes from the closed form
    text = (
        "[model]\nkind = parent\nt1 = 0.8620648185190225\ndelta1 = -0.6291570250874932\n"
        f"mu1 = 1.5780077134830899\n[task]\n{key} = 5\n"
    )
    rc = main([task, "--config", _config(tmp_path, text)])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert f"# task.{key} = 5" in out.splitlines()
    assert out.splitlines()[-1] == row


def _check_sweep_mu(link, n_modes=None):
    def check(cfg, rows):
        lat = cfg.lattice
        groups = {}
        for mu1, mu2, bc, i, e in rows:
            groups.setdefault((mu1, mu2, bc), []).append((i, e))
        assert [key[0] for key in groups][::2] == list(np.linspace(-1.0, 1.0, 3))
        for (mu1, mu2, bc), levels in groups.items():
            if cfg.kind == "parent":
                assert mu2 == ""
                model = replace(cfg.model, mu=mu1)
            else:
                assert mu2 == {"equal": mu1, "opposite": -mu1, "fixed": cfg.model.p2.mu}[link]
                model = ChildSpec(
                    replace(cfg.model.p1, mu=mu1), replace(cfg.model.p2, mu=mu2), PARALLEL
                )
            bc = {"obc": "open", "pbc": "periodic"}[bc]
            want = _dense_levels(model, replace(lat, bc=bc), n_modes)
            assert [i for i, _ in levels] == list(range(want.size))
            assert np.abs(np.array([e for _, e in levels]) - want).max() < 1e-10

    return check


def _check_sweep_length(cfg, rows):
    lengths = sorted({r[0] for r in rows})
    assert lengths == [4, 5, 6, 7]
    for L in lengths:
        ev = _dense_levels(cfg.model, ChainLattice(L))
        want = _dense_levels(cfg.model, ChainLattice(L), n_modes=4)
        got = [r for r in rows if r[0] == L]
        assert [r[1] for r in got] == [0, 1, 2, 3]
        assert np.abs(np.array([r[2] for r in got]) - want).max() < 1e-10
        splitting = ev[ev.size // 2] - ev[ev.size // 2 - 1]
        assert all(abs(r[3] - splitting) < 1e-10 for r in got)


def _check_density(cfg, rows):
    lat = cfg.lattice
    dense = dense_solver(cfg.model, lat, tol=1e-8)
    assert dense.count > 0
    if isinstance(lat, SlabLattice):
        sites = [(i + 1, j + 1) for i in range(lat.Lx) for j in range(lat.Ly)]
    else:
        sites = [(i + 1, 0) for i in range(lat.L)]
    assert [(r[0], r[1]) for r in rows] == sites
    w = np.array([r[2] for r in rows])
    assert np.abs(w - dense.weights.ravel()).max() < 1e-10


def _check_classify(cfg, rows):
    results = classify_zero_modes(cfg.model, cfg.lattice, zero_tol=1e-8)
    flag = {None: "", True: "yes", False: "no"}
    want = [
        [region, i, st.label, pytest.approx(st.entropy, abs=1e-12),
         pytest.approx(st.overlap, abs=1e-12),
         flag[results[region].matches_table], flag[results[region].row_complete]]
        for region in sorted(results)
        for i, st in enumerate(results[region].states)
    ]
    assert rows and rows == want


def test_classify_prints_no_negative_zero_entropy(tmp_path, capsys):
    # at zero-tol = 100 every quadrant of the dead-point slab holds all four
    # products; an exact product's entropy is 0, never the -0 of -(1 log 1)
    text = _PERIMETER_SLAB + _SLAB_4x5 + "[task]\nzero-tol = 100\n"
    assert main(["classify", "--config", _config(tmp_path, text)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("# ")]
    col = lines[0].split(",").index("entropy")
    cells = [line.split(",")[col] for line in lines[1:]]
    assert len(cells) == 16 and not any(c.startswith("-") for c in cells)


def _check_dirac_parallel(cfg, rows):
    rec = dirac_expansion_parallel(cfg.model)
    names = ("m1", "m2", "mass", "v1", "v2", "quad")
    assert rows == [[name, getattr(rec, name)] for name in names]


def _check_dirac_perpendicular(cfg, rows):
    rec = group_velocity_perp(cfg.model, 0.01, 0.01)
    assert rows == [
        ["velocity_x", rec.velocity[0]], ["velocity_y", rec.velocity[1]],
        ["closed_form_x", rec.closed_form[0]], ["closed_form_y", rec.closed_form[1]],
        ["at_critical", float(rec.at_critical)], ["one_sided", float(rec.one_sided)],
    ]


def _check_slab_spectrum(cfg, rows):
    want = np.linalg.eigvalsh(build_slab(cfg.model, cfg.lattice))
    assert [r[0] for r in rows] == list(range(want.size))
    assert np.abs(np.array([r[1] for r in rows]) - want).max() < 1e-10


def _check_wannier(cfg, rows):
    if cfg.kind == "parent":
        spectra = [wannier_center_parent(cfg.model)]
        dense = [dense_wannier_parent(cfg.model, 41)]
    elif cfg.kind == "mkc-parallel":
        spectra = [wannier_centers_parallel(cfg.model)]
        dense = [dense_wannier_parallel(cfg.model, 41)]
    else:
        spectra = [wannier_centers_perp(cfg.model, d, 0.3) for d in ("x", "y")]
        dense = [dense_wannier_perp(cfg.model, d, 0.3, 41) for d in ("x", "y")]
    want = [[ws.path, i, float(c)] for ws in spectra for i, c in enumerate(ws.centers)]
    assert rows == want
    assert [r[0] for r in rows] == [ws.path for ws in dense for _ in ws.centers]
    centers = np.concatenate([ws.centers for ws in dense])
    assert center_distance([r[2] for r in rows], centers).max() < 1e-8


def _check_points(cfg, rows):
    lat = cfg.lattice
    if cfg.kind == "parent":
        points = kc_majorana_points(cfg.model, lat.L)
    else:
        points = perp_obc_gapless_points(cfg.model, lat.Lx, lat.Ly)
    assert rows == [
        [mu, d, prov]
        for mu, d, prov in zip(points.mu_values, points.degeneracies, points.provenance)
    ]


def _check_quantization_window(cfg, rows):
    points = quantization_points(cfg.model.p1, cfg.model.p2, 7, (-1.0, 1.0))
    assert rows and all(-1.0 <= r[0] <= 1.0 for r in rows)
    assert rows == [
        [mu, d, prov]
        for mu, d, prov in zip(points.mu_values, points.degeneracies, points.provenance)
    ]


@pytest.mark.parametrize(
    "task, text, check",
    [
        ("winding", _PARENT_HEAD, _check_parent_winding),
        ("winding", _README_CHILD, _check_parallel_winding),
        ("winding", _PERPENDICULAR_HEAD + "[lattice]\nlx = 3\nly = 4\n",
         _check_perpendicular_winding),
        ("sweep-mu", _PARALLEL_HEAD + _L6 + _SWEEP, _check_sweep_mu("equal")),
        ("sweep-mu", _PARALLEL_HEAD + _L6 + _SWEEP + "link = opposite\n",
         _check_sweep_mu("opposite")),
        ("sweep-mu", _PARALLEL_HEAD + _L6 + _SWEEP + "link = fixed\n", _check_sweep_mu("fixed")),
        ("sweep-mu", _PARENT_HEAD + _L6 + _SWEEP,
         _check_sweep_mu("equal")),
        ("sweep-mu", _GENERIC_CHILD + _L6 + _SWEEP + "n-modes = 4\n",
         _check_sweep_mu("equal", n_modes=4)),
        ("sweep-length", _GENERIC_CHILD + "[task]\nl-min = 4\nl-max = 7\nn-modes = 4\n",
         _check_sweep_length),
        ("density", _ZERO_CHILD + _L6, _check_density),
        ("density", _PERIMETER_SLAB + _SLAB_4x5, _check_density),
        ("classify", _README_CHILD + "[lattice]\nl = 24\n", _check_classify),
        ("classify", _PERIMETER_SLAB + _SLAB_4x5, _check_classify),
        ("dirac", _README_CHILD, _check_dirac_parallel),
        ("dirac", _PERPENDICULAR_HEAD, _check_dirac_perpendicular),
        ("spectrum", _PERPENDICULAR_HEAD + "[lattice]\nlx = 3\nly = 4\nbcy = periodic\n",
         _check_slab_spectrum),
        ("wannier", _ZERO_PARENT + "[task]\nloop-points = 41\n", _check_wannier),
        ("wannier", _PARALLEL_HEAD + "[task]\nloop-points = 41\n", _check_wannier),
        ("wannier", _PERPENDICULAR_HEAD + "[task]\nloop-points = 41\nfixed-momentum = 0.3\n",
         _check_wannier),
        ("majorana-points", _PARENT_HEAD + _L6, _check_points),
        ("majorana-points", _PERPENDICULAR_HEAD + _SLAB_4x5, _check_points),
        ("quantization", _MIXED_HEAD + "[lattice]\nl = 7\n[task]\nmu-min = -1\nmu-max = 1\n",
         _check_quantization_window),
    ],
    ids=["winding-parent", "winding-parallel", "winding-perpendicular",
         "sweep-mu-equal", "sweep-mu-opposite", "sweep-mu-fixed", "sweep-mu-parent",
         "sweep-mu-n-modes", "sweep-length", "density-chain", "density-slab",
         "classify-chain", "classify-slab", "dirac-parallel", "dirac-perpendicular",
         "spectrum-slab", "wannier-parent", "wannier-parallel", "wannier-perpendicular",
         "majorana-points-parent", "majorana-points-perpendicular", "quantization-window"],
)
def test_task_rows_match_library_and_dense_reference(
    tmp_path, capsys, monkeypatch, task, text, check
):
    seen = {}

    def spy(cfg):
        seen["cfg"], seen["payload"] = cfg, run_task(cfg)
        return seen["payload"]

    monkeypatch.setattr(cli, "run_task", spy)
    path = _config(tmp_path, text)
    rc = main([task, "--config", path])
    out, _ = capsys.readouterr()
    assert rc == 0
    payload = seen["payload"]
    rows = list(payload["rows"])
    assert all(type(v) in (float, int, str) for row in rows for v in row)
    # the CSV cells read back to the payload's values
    lines = [l for l in out.splitlines() if not l.startswith("# ")]
    assert lines[0] == ",".join(payload["columns"])
    assert len(payload["rows"]) == len(lines) - 1
    for line, row in zip(lines[1:], rows, strict=True):
        assert [type(v)(c) for v, c in zip(row, line.split(","), strict=True)] == row
    assert out == plain_csv(seen["cfg"], payload)
    _check_writers(seen["cfg"], payload)
    if task.startswith("sweep-"):
        assert main([task, "--config", path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr()[0])["payload"]["rows"] == rows
    check(seen["cfg"], rows)


def test_one_channel_disorder_skips_the_site_symmetry_search(tmp_path, capsys, monkeypatch):
    # a site-local symmetry links two channels, so a one-channel sweep has nothing
    # to join: it prints the bytes of a sweep that searched, without searching
    sweep, search = disorder.robustness_sweep, disorder._site_symmetries
    searched = []

    def counted(fb, lat):
        searched.append(1)
        return search(fb, lat)

    def doubled(model, lat, channels=None, **kwargs):
        # the channel twice runs the search; the copy reads the first one's solve
        rep = sweep(model, lat, channels=list(channels) * 2, **kwargs)
        return replace(rep, channels=rep.channels[:1], displacement=rep.displacement[:1])

    def unsearched(fb, lat):
        raise AssertionError("a one-channel sweep searched the site-local symmetries")

    grid = "mu-min = -0.5\nmu-max = 0.5\nmu-points = 3\nrealizations = 2\n"
    cases = [
        (_ZERO_CHILD + _L12 + f"[task]\nchannel = yz\n{grid}", 3),
        (_PERIMETER_SLAB + _SLAB_4x5 + "[task]\nchannel = 0y\nrealizations = 2\n", 1),
    ]
    for i, (text, points) in enumerate(cases):
        path = _config(tmp_path, text, f"one{i}.cfg")
        monkeypatch.setattr(disorder, "_site_symmetries", unsearched)
        assert main(["disorder", "--config", path]) == 0
        plain = capsys.readouterr().out
        monkeypatch.setattr(disorder, "_site_symmetries", counted)
        monkeypatch.setattr(disorder, "robustness_sweep", doubled)
        searched.clear()
        assert main(["disorder", "--config", path]) == 0
        monkeypatch.setattr(disorder, "robustness_sweep", sweep)
        assert len(searched) == points
        assert capsys.readouterr().out == plain


_CANONICAL_CHAIN = _ZERO_CHILD + "[lattice]\nl = 80\n"


def test_chain_sweeps_and_disorder_print_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    """The canonical L = 80 child's sweep-mu at 11 and 201 points and its
    full-size disorder sweep (16 channels x 50 realizations), run at one and
    at two OpenBLAS threads, print the same bytes.

    The 20x50 slab disorder sweep is left out: it is known to differ, because
    its robust displacements are rounding noise that a threaded SVD of its
    unsplit corners rounds differently, and it waits for displacements
    stated against their resolution floor (ROADMAP).
    """
    sweep = "[task]\nmu-min = -3\nmu-max = 3\nmu-points = {}\nlink = equal\n"
    runs = [
        ("sweep-mu", _CANONICAL_CHAIN + sweep.format(11)),
        ("sweep-mu", _CANONICAL_CHAIN + sweep.format(201)),
        ("disorder", _CANONICAL_CHAIN),
    ]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for i, (task, text) in enumerate(runs):
        path = _config(tmp_path, text, f"threads{i}.cfg")
        outs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "mkc.cli", task, "--config", path],
                env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
                capture_output=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1], (task, text)
