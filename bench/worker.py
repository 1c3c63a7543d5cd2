"""Run one workload in this process and print its measurements as one JSON line.

run.py starts this in a fresh child process per workload, so the peak RSS
it reports belongs to that workload alone.  The loop is closed: one
client, one op at a time, each op one in-process `mkc.cli.main` call with
its output captured and checked against the reference outside the timed
region.  A warm-up pass runs first.  Untraced runs then repeat timed
passes until --seconds have passed, and spawn the set-up processes of
setup_s between them; traced runs alternate untraced and traced passes,
so both pass_s values come from the same process.

Usage (from the repository root, with src/ importable):
    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1
"""

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import check
import tracer
import workloads

MIN_PASSES = 3          # timed passes per untraced run, however long they take
SETUP_SPAWNS = 11       # fresh `import mkc.cli` processes per untraced run
MIN_TRACE_PASSES = 2    # of each kind in a traced run
WALL_LIMIT_S = 150.0    # stop repeating passes after this, minimums or not


def import_mkc(src):
    sys.path.insert(0, src)
    import mkc.cli

    if not os.path.abspath(mkc.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"mkc was imported from {mkc.cli.__file__}, not from {src}")
    return mkc.cli


def blas_threads():
    """Thread count the loaded OpenBLAS reports to this process, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({l.split()[-1] for l in fh if "openblas" in l.lower() and ".so" in l})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def machine_facts(ops):
    """Facts that change the numbers; recorded, never set."""
    import numpy as np
    from mkc.config import parse_config

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    mkc_threads = os.environ.get("MKC_THREADS") or parse_config(
        ops[0].config, cli_task=ops[0].task
    ).threads
    env = ("MKC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "mkc_threads": int(mkc_threads),
        "env": {k: os.environ[k] for k in env if k in os.environ},
    }


def setup_seconds():
    """Wall time of one fresh interpreter that imports mkc.cli (numpy, BLAS, mkc)."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import mkc.cli"], capture_output=True, text=True, timeout=60
    )
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit(f"cannot import mkc.cli in a fresh process: {proc.stderr[-500:]}")
    return elapsed


def execute(cli, op, path):
    """One timed `mkc <task> --config path` call: (seconds, stdout, problems)."""
    out, err = io.StringIO(), io.StringIO()
    problems = []
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([op.task, "--config", path])
    except Exception as exc:  # a crash is a failed op, not a failed benchmark
        code = None
        problems.append(f"raised {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - started
    if code not in (0, None):
        problems.append(f"exit code {code}: {err.getvalue().strip()[-300:]}")
    return elapsed, out.getvalue(), problems


class Runner:
    """Runs and times ops; keeps each distinct output for checking later.

    Outputs are checked after the timed passes and after peak RSS is
    read, so neither the comparison nor the reference files count against
    the workload.
    """

    def __init__(self, cli, workload, ops, workdir):
        self.cli = cli
        self.workload = workload
        self.ops = ops
        self.paths = []
        for i, op in enumerate(ops):
            path = os.path.join(workdir, f"op{i}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(op.config)
            self.paths.append(path)
        self.attempted = 0
        self.outputs = [{} for _ in ops]   # per op: output text -> executions
        self.failures = []

    def run_op(self, i):
        """Execute op i once; return its wall time in seconds."""
        elapsed, text, problems = execute(self.cli, self.ops[i], self.paths[i])
        self.attempted += 1
        if problems:
            self.failures.append({"op": self.ops[i].op_id, "problems": problems[:5]})
        else:
            self.outputs[i][text] = self.outputs[i].get(text, 0) + 1
        return elapsed

    def run_pass(self, order, times):
        for i in order:
            times[i].append(self.run_op(i))

    def check_outputs(self):
        """Compare every distinct output with the reference; count failures."""
        for op, outputs in zip(self.ops, self.outputs):
            ref = check.load_reference(self.workload, op.ref_id)
            for text, executions in outputs.items():
                seed = op.disorder_seed
                if seed is not None and seed != workloads.REFERENCE_DISORDER_SEED:
                    problems = check.compare_verdicts(text, ref, seed)
                else:
                    problems = check.compare(text, ref)
                if problems:
                    self.failures += [{"op": op.op_id, "problems": problems[:5]}] * executions


def pass_seconds(times):
    """Sum over ops of each op's fastest wall time.

    A shared host can flip between speed states that last seconds; then a
    median measures how long a run spent in the slow state, while the
    minimum over many samples reads the fast one (NOTES.md, "Noise on this
    machine").
    """
    return sum(min(t) for t in times)


def op_stats(op_id, samples):
    """Minimum, median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    out = {"op": op_id, "n": n, "min_s": ordered[0], "median_s": statistics.median(ordered)}
    if n > 10:
        q = math.floor(100 * (n - 10) / n)
        out[f"p{q}_s"] = ordered[max(math.ceil(q * n / 100), 1) - 1]
    return out


def run(cli, workload, seed, seconds, traced, workdir):
    ops = workloads.ops_for(workload, seed)
    runner = Runner(cli, workload, ops, workdir)
    orders = workloads.pass_orders(len(ops), seed)
    started = time.perf_counter()

    runner.run_pass(next(orders), [[] for _ in ops])  # warm-up
    window_start = time.perf_counter()
    window_end = window_start + seconds
    plain = [[] for _ in ops]
    result = {}
    if not traced:
        # Set-up spawns are spread over the window between passes, so they
        # meet the same host conditions as the passes do.
        setup = []
        while time.perf_counter() < window_end or len(plain[0]) < MIN_PASSES:
            runner.run_pass(next(orders), plain)
            elapsed = time.perf_counter() - window_start
            due = SETUP_SPAWNS * min(1.0, elapsed / seconds) if seconds > 0 else SETUP_SPAWNS
            while len(setup) < int(due):
                setup.append(setup_seconds())
            if time.perf_counter() - started > WALL_LIMIT_S:
                break
        while len(setup) < SETUP_SPAWNS:
            setup.append(setup_seconds())
        result["setup_s"] = statistics.median(setup)
        result["setup_samples_s"] = setup
    else:
        recorder = tracer.Tracer()
        traced_times = [[] for _ in ops]
        per_pass = []
        while time.perf_counter() < window_end or len(traced_times[0]) < MIN_TRACE_PASSES:
            runner.run_pass(next(orders), plain)
            recorder.install()
            try:
                runner.run_pass(next(orders), traced_times)
            finally:
                recorder.uninstall()
            per_pass.append(tracer.layer_metrics(recorder.spans))
            recorder.clear()
            if time.perf_counter() - started > WALL_LIMIT_S:
                break
        layers = {}
        for name, unit in tracer.METRICS:
            values = [m[name] for m in per_pass]
            value = values[0] if name in tracer.EXACT_COUNTS else statistics.median(values)
            layers[name] = {"value": value, "unit": unit}
        result["layers"] = layers
        result["counts_repeat"] = all(
            m[name] == per_pass[0][name] for m in per_pass for name in tracer.EXACT_COUNTS
        )
        result["traced_pass_s"] = pass_seconds(traced_times)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runner.check_outputs()
    result.update(
        attempted=runner.attempted,
        failed=len(runner.failures),
        failures=runner.failures[:10],
        pass_s=pass_seconds(plain),
        ops=[op_stats(op.op_id, t) for op, t in zip(ops, plain)],
        peak_rss_mb=peak_rss_mb,
        machine=machine_facts(ops),
    )
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    cli = import_mkc(os.path.join(root, "src"))
    scratch = os.path.join(root, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        result = run(cli, args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)  # only when no other run is using it
    print(json.dumps(result))


if __name__ == "__main__":
    main()
