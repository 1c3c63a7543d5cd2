"""Regenerate reference/ from the current (dense) mkc code.

Run from the repository root:
    python3 bench/make_reference.py

Each op with its own reference runs twice; the two outputs must agree
under check.compare before the first is written.  Then the seeded
disorder op runs with seeds 0..CHECK_SEEDS-1 and must match the frozen verdict
table.  Only regenerate when an op list changes: a solver change is
judged against the references as they stand.
"""

import os
import tempfile

import check
import workloads
from worker import execute, import_mkc

CHECK_SEEDS = 10   # seeds 0..9 must reproduce the frozen verdict table


def main():
    cli = import_mkc(os.path.join(os.getcwd(), "src"))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "op.cfg")

        def output(op):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(op.config)
            _, text, problems = execute(cli, op, path)
            if problems:
                raise SystemExit(f"{op.op_id}: {problems}")
            return text

        for workload in workloads.WORKLOADS:
            os.makedirs(os.path.join(check.REFERENCE_DIR, workload), exist_ok=True)
            for op in workloads.ops_for(workload, workloads.REFERENCE_DISORDER_SEED):
                if op.reference is not None:
                    continue
                first, second = output(op), output(op)
                problems = check.compare(second, first)
                if problems:
                    raise SystemExit(f"{workload}/{op.op_id} is not repeatable: {problems}")
                with open(check.reference_path(workload, op.op_id), "w",
                          encoding="utf-8", newline="") as fh:
                    fh.write(first)
                print(f"{workload}/{op.op_id}: {first.count(chr(10))} lines"
                      f"{'' if first == second else ' (rerun differs within tolerance)'}")

        for seed in range(CHECK_SEEDS):
            op = workloads.ops_for("chain-disorder", seed)[1]
            ref = check.load_reference("chain-disorder", op.ref_id)
            problems = check.compare_verdicts(output(op), ref, op.disorder_seed)
            if problems:
                raise SystemExit(f"disorder seed {seed} changes the verdict table: {problems}")
        print(f"verdict table holds for disorder seeds 0..{CHECK_SEEDS - 1}")


if __name__ == "__main__":
    main()
