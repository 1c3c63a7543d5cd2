"""Compare an op's CSV output with its frozen dense-code reference.

References are the exact bytes the dense solvers emitted when
make_reference.py ran.  The comparison is:

- the echoed configuration, the header and the row count match exactly;
- the cells of a float column (FLOAT_COLUMNS, by header name) match
  within FLOAT_TOL times the column's largest reference magnitude (at
  least 1): 1e-8, the CLI's own zero tolerance, so a solver change may
  move emitted digits but not a zero-mode decision.  Wannier centers are
  values mod 1, so `center` is compared by distance on the unit circle;
- every other cell (labels, verdicts, counts, degeneracies, provenance,
  indices) matches exactly.

A disorder op run with another seed than the reference one is checked
against the frozen verdict table only: channel, mu, threshold and verdict
as above, and each displacement on the side of the threshold its verdict
claims.
"""

import math
import os

FLOAT_TOL = 1e-8

# Columns that hold emitted floats, across every task's output.
FLOAT_COLUMNS = {
    "mu", "mu1", "mu2", "fixed_momentum", "displacement", "threshold", "energy",
    "weight", "entropy", "overlap", "value", "residual", "center",
}

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def reference_path(workload, op_id):
    return os.path.join(REFERENCE_DIR, workload, f"{op_id}.csv")


def load_reference(workload, op_id):
    with open(reference_path(workload, op_id), encoding="utf-8", newline="") as fh:
        return fh.read()


def _split(text):
    lines = text.splitlines()
    echo = [l for l in lines if l.startswith("# ")]
    body = lines[len(echo):]
    if not body:
        raise ValueError("no header line")
    return echo, body[0].split(","), [l.split(",") for l in body[1:]]


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _close(got, want, scale, circular):
    g, w = _number(got), _number(want)
    if g is None or w is None:
        return got == want
    if math.isnan(w):
        return math.isnan(g)
    d = abs((g - w + 0.5) % 1.0 - 0.5) if circular else abs(g - w)
    return d <= FLOAT_TOL * scale


def compare(got_text, ref_text, skip_columns=()):
    """Return a list of mismatch descriptions, empty when the output agrees."""
    try:
        got_echo, got_header, got_rows = _split(got_text)
    except ValueError as exc:
        return [f"unreadable output: {exc}"]
    ref_echo, header, ref_rows = _split(ref_text)
    problems = []
    if got_echo != ref_echo:
        problems.append(f"config echo differs: {sorted(set(got_echo) ^ set(ref_echo))}")
    if got_header != header:
        return problems + [f"header {got_header} != {header}"]
    if len(got_rows) != len(ref_rows):
        return problems + [f"{len(got_rows)} rows, reference has {len(ref_rows)}"]
    floats = {j for j, name in enumerate(header) if name in FLOAT_COLUMNS}
    skip = {header.index(c) for c in skip_columns}
    scale = {
        j: max([1.0] + [abs(x) for r in ref_rows if (x := _number(r[j])) is not None])
        for j in floats
    }
    for i, (got, want) in enumerate(zip(got_rows, ref_rows)):
        if len(got) != len(want):
            problems.append(f"row {i}: {len(got)} cells, reference has {len(want)}")
            continue
        for j, (g, w) in enumerate(zip(got, want)):
            if j in skip:
                continue
            ok = _close(g, w, scale[j], header[j] == "center") if j in floats else g == w
            if not ok:
                problems.append(f"row {i} {header[j]}: {g!r} != reference {w!r}")
        if len(problems) > 10:
            break
    return problems


def compare_verdicts(got_text, ref_text, seed):
    """Check a disorder output from another seed against the verdict table."""
    ref_text = ref_text.replace(
        f"# task.seed = {_reference_seed(ref_text)}\n", f"# task.seed = {seed}\n"
    )
    problems = compare(got_text, ref_text, skip_columns=("displacement",))
    if problems:
        return problems
    _, header, rows = _split(got_text)
    disp, thr, verdict = (header.index(c) for c in ("displacement", "threshold", "verdict"))
    for i, row in enumerate(rows):
        if row[verdict] == "no-zero-modes":
            ok = row[disp] == ""
        else:
            robust = float(row[disp]) < float(row[thr])
            ok = robust == (row[verdict] == "robust")
        if not ok:
            problems.append(f"row {i}: displacement {row[disp]!r} contradicts {row[verdict]!r}")
    return problems


def _reference_seed(ref_text):
    for line in ref_text.splitlines():
        if line.startswith("# task.seed = "):
            return line.split("=", 1)[1].strip()
    raise ValueError("reference disorder output echoes no seed")
