"""Self-tests of the benchmark itself.

Run from the repository root (takes about two minutes):
    python3 bench/selftest.py

1. Corrupted outputs are counted as failed ops: a float moved beyond the
   tolerance, a changed label, an op that raises and one that exits
   non-zero each fail, while a float moved within the tolerance passes.
   A flipped disorder verdict fails the verdict-table check.  A Wannier
   center that crosses the cut at 0 = 1, and a float column whose
   reference prints as an integer, pass when moved within the tolerance.
2. The computed counts of the traced run (tracer.EXACT_COUNTS) repeat
   exactly between two traced runs with different seeds, on every
   workload, and every op of those runs is correct.
"""

import json
import os
import subprocess
import sys
import tempfile

import check
import tracer
import workloads
from worker import Runner, import_mkc

HERE = os.path.dirname(os.path.abspath(__file__))


def expect(condition, message):
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def corrupting(run_task):
    """run_task with known damage done to some tasks' payloads."""
    from mkc.errors import NumericalError

    def damaged(cfg):
        if cfg.task == "winding" and cfg.kind == "mkc-parallel":
            raise NumericalError("injected")          # main exits 3
        if cfg.task == "winding":
            raise RuntimeError("injected")            # main raises
        payload = run_task(cfg)
        rows = payload["rows"]
        if cfg.task == "dirac" and cfg.kind == "mkc-parallel":
            rows[0][1] += 1e-6                        # beyond FLOAT_TOL
        elif cfg.task == "classify":
            rows[0][2] = "prod:00" if rows[0][2] != "prod:00" else "prod:11"
        elif cfg.task == "wannier":
            rows[0][2] += 1e-12                       # within FLOAT_TOL
        return payload

    return damaged


def test_corruption_is_counted(cli):
    import mkc.cli

    ops = workloads.ops_for("small-tasks", 0)
    original = mkc.cli.run_task
    mkc.cli.run_task = corrupting(original)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            runner = Runner(cli, "small-tasks", ops, tmp)
            runner.run_pass(range(len(ops)), [[] for _ in ops])
            runner.check_outputs()
    finally:
        mkc.cli.run_task = original
    failed = sorted(f["op"] for f in runner.failures)
    want = ["classify-readme-l40", "dirac-parallel", "winding-parallel", "winding-perpendicular"]
    expect(runner.attempted == len(ops), f"attempted {runner.attempted} != {len(ops)}")
    expect(failed == want, f"failed ops {failed}, expected {want}")

    ref = check.load_reference("chain-disorder", "disorder-reference")
    flipped = ref.replace(",robust\n", ",broken\n", 1)
    expect(check.compare_verdicts(flipped, ref, 7), "a flipped verdict passed the verdict table")
    expect(not check.compare_verdicts(ref, ref, workloads.REFERENCE_DISORDER_SEED),
           "the reference fails its own verdict table")
    print("ok: corrupted outputs are counted as failed ops")


def test_float_columns():
    ref = check.load_reference("small-tasks", "wannier-parallel")
    near_zero = ",1.0160105232452899e-16\n"
    expect(near_zero in ref, "wannier-parallel reference lost its center near 0")
    wrapped = ref.replace(near_zero, ",0.99999999999999999\n")
    expect(not check.compare(wrapped, ref), "a center across the cut at 0 = 1 failed")
    expect(check.compare(ref.replace(near_zero, ",0.5\n"), ref), "a moved center passed")

    ref = check.load_reference("small-tasks", "majorana-points-perpendicular")
    moved = ref.replace("\n0,", "\n1e-12,", 1)
    expect(moved != ref and not check.compare(moved, ref),
           "an integer-printed mu moved within the tolerance failed")
    expect(check.compare(ref.replace("\n0,", "\n1e-6,", 1), ref),
           "an integer-printed mu moved beyond the tolerance passed")
    print("ok: float columns are told by name; centers compare mod 1")


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170,
    )
    expect(proc.returncode == 0, f"traced {workload} run exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def test_counts_repeat():
    for workload in workloads.WORKLOADS:
        first, second = traced_run(workload, 1), traced_run(workload, 2)
        for result in (first, second):
            expect(result["failed"] == 0, f"{workload}: failures {result['failures']}")
            expect(result["counts_repeat"], f"{workload}: counts differ between passes")
        for name in tracer.EXACT_COUNTS:
            a, b = first["layers"][name]["value"], second["layers"][name]["value"]
            expect(a == b, f"{workload}: {name} is {a} in one run and {b} in the other")
        print(f"ok: {workload} counts repeat exactly")


def main():
    cli = import_mkc(os.path.join(os.getcwd(), "src"))
    test_corruption_is_counted(cli)
    test_float_columns()
    test_counts_repeat()


if __name__ == "__main__":
    main()
