"""End-to-end command-line behavior: exit codes, formats, determinism."""

import json
import os

import pytest

from mkc.cli import main
from mkc.config import parse_config
from mkc.errors import ConfigError

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
    ],
    ids=["l-0", "l-2-range-2-hopping", "lx-2", "k-points-0", "loop-points-0",
         "samples-2", "l-step-0", "l-step-negative"],
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
