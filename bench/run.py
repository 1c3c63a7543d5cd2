"""mkc benchmark: one workload, every output checked, metrics as JSON.

Run from the repository root:
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

The workload runs in a fresh child process (worker.py), which drives mkc
in-process through mkc.cli.main.  With --trace 0 the last stdout line
holds the end-to-end metrics:

    pass_s       time to solve the workload's op list once: the sum over
                 its ops of each op's fastest wall time across the run's
                 timed passes (warm-up excluded; NOTES.md says why not
                 the median)
    peak_rss_mb  ru_maxrss of the workload's child process, in MiB
    setup_s      median wall time of fresh `python3 -c "import mkc.cli"`
                 processes, spawned between the timed passes: interpreter
                 start plus numpy, BLAS and mkc

With --trace 1 it holds the per-layer metrics of tracer.py, plus
trace.overhead_s, the traced minus the untraced pass_s of the same run.
`attempted` counts op executions and `failed` those that raised, exited
non-zero or disagreed with the reference.  The line before it carries
diagnostics: per-op minima, medians and tail percentiles with sample counts,
machine facts and any failures.  Exits non-zero, printing no result,
when mkc cannot be imported or run.
"""

import argparse
import json
import os
import subprocess
import sys

import workloads

CHILD_TIMEOUT_S = 170


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(1)


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(root, env, args):
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    cmd = [
        sys.executable, worker, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish in {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"workload {args.workload} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description="mkc benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    env = child_env(root)
    diagnostics = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        result = run_worker(root, env, args)
        metrics = dict(result["layers"])
        metrics["trace.overhead_s"] = {
            "value": result["traced_pass_s"] - result["pass_s"], "unit": "s"
        }
        diagnostics.update(
            counts_repeat=result["counts_repeat"],
            untraced_pass_s=result["pass_s"],
            traced_pass_s=result["traced_pass_s"],
        )
    else:
        result = run_worker(root, env, args)
        metrics = {
            "pass_s": {"value": result["pass_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": result["setup_s"], "unit": "s"},
        }
        diagnostics["setup_samples_s"] = result["setup_samples_s"]
    diagnostics.update(
        ops=result["ops"],
        ops_failed=result["failed"] / result["attempted"],
        failures=result["failures"],
        machine=result["machine"],
    )
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
