"""End-to-end command-line behavior: exit codes, formats, determinism."""

import json
import os

import numpy as np
import pytest

from dense_reference import apply_onsite_disorder, build_slab
from mkc.cli import main
from mkc.config import parse_config
from mkc.disorder import CHILD_CHANNELS, DisorderSpec
from mkc.errors import ConfigError
from mkc.lattice import SlabLattice
from mkc.models import ChildSpec, ParentParams

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


def test_output_bytes_ignore_thread_count(tmp_path, monkeypatch):
    cfg = _config(tmp_path, CHILD_WANNIER)
    paths = [tmp_path / f"r{i}.csv" for i in range(3)]
    assert main(["wannier", "--config", cfg, "--out", str(paths[0]), "--threads", "1"]) == 0
    assert main(["wannier", "--config", cfg, "--out", str(paths[1]), "--threads", "4"]) == 0
    monkeypatch.setenv("MKC_THREADS", "2")
    assert main(["wannier", "--config", cfg, "--out", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


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


def test_numerical_error_exits_3(tmp_path, capsys):
    # a critical first parent drags the perpendicular winding curves
    # through the origin
    text = """\
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
    rc = main(["winding", "--config", _config(tmp_path, text)])
    _, err = capsys.readouterr()
    assert rc == 3
    assert "numerical error" in err and "CriticalCurveError" in err


def test_bad_env_threads_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MKC_THREADS", "many")
    rc = main(["spectrum", "--config", _config(tmp_path, PARENT_SPECTRUM)])
    _, err = capsys.readouterr()
    assert rc == 2 and "MKC_THREADS" in err


def test_bad_cli_threads_exits_2(tmp_path, capsys):
    rc = main(["spectrum", "--config", _config(tmp_path, PARENT_SPECTRUM), "--threads", "0"])
    _, err = capsys.readouterr()
    assert rc == 2 and "--threads" in err


def test_thread_precedence(tmp_path, capsys, monkeypatch):
    with_threads = PARENT_SPECTRUM + "threads = 2\n"
    monkeypatch.setenv("MKC_THREADS", "5")
    # command line wins over config, config over environment, environment
    # over the machine default
    assert parse_config(with_threads, cli_threads=3).threads == 3
    assert parse_config(with_threads).threads == 2
    assert parse_config(PARENT_SPECTRUM).threads == 5
    monkeypatch.setenv("MKC_THREADS", "0")
    with pytest.raises(ConfigError):
        parse_config(PARENT_SPECTRUM)
    # a bad environment value is not read when a higher source gives the count
    assert parse_config(with_threads).threads == 2
    rc = main(["spectrum", "--config", _config(tmp_path, PARENT_SPECTRUM), "--threads", "1"])
    capsys.readouterr()
    assert rc == 0
    monkeypatch.delenv("MKC_THREADS")
    assert parse_config(PARENT_SPECTRUM).threads == (os.cpu_count() or 1)


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


@pytest.mark.parametrize(
    "task, text",
    [
        ("spectrum", PARENT_SPECTRUM.replace("l = 8", "l = 0")),
        ("spectrum", _PARALLEL_HEAD + "[lattice]\nl = 2\n"),
        ("density", _PERPENDICULAR_HEAD + "[lattice]\nlx = 2\nly = 5\n"),
        ("symmetry-check", _PARALLEL_HEAD + "[task]\nk-points = 0\n"),
        ("wannier", _PARALLEL_HEAD + "[task]\nloop-points = 0\n"),
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
    ],
    ids=["l-0", "l-2-range-2-hopping", "lx-2", "k-points-0", "loop-points-0",
         "samples-2", "l-step-0", "l-step-negative", "l-1-quantization",
         "l-1-majorana-points", "mu-points-0-sweep-mu", "mu-points-0-disorder",
         "n-modes-0-sweep-mu", "n-modes-negative-sweep-length", "grid-points-negative",
         "l-min-above-l-max", "quantization-empty-mu-range", "t1-nan", "mu1-inf",
         "sweep-mu-mu-min-nan", "quantization-mu-max-inf", "disorder-amplitude-nan",
         "wannier-fixed-momentum-inf", "density-zero-tol-nan", "dirac-kx-nan",
         "parent-channel-on-child", "child-channel-on-parent",
         "parent-channel-on-trivial-child", "child-channel-on-trivial-parent",
         "realizations-0"],
)
def test_out_of_range_sizes_and_counts_exit_2(tmp_path, capsys, task, text):
    rc = main([task, "--config", _config(tmp_path, text)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("mkc: config error:")


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
