"""The benchmark's workloads: fixed lists of mkc task invocations.

An op is one `mkc <task> --config <file>` call.  Every op's inputs are
fixed here, except the disorder seed of one `chain-disorder` op, which is
the benchmark seed.  The benchmark seed also shuffles the op order of
each pass.

The sizes are smaller than the ROADMAP baseline runs (20x50 slab, 50
disorder realizations, 201 sweep points) so that a warm-up pass plus
several timed passes fit in one run of the benchmark; NOTES.md records the
full-size figures next to these.
"""

import random
from dataclasses import dataclass

# The disorder op whose output is frozen exactly in reference/; any other
# disorder seed is checked against the verdict table only.
REFERENCE_DISORDER_SEED = 42

SLAB = (12, 30)             # Lx, Ly: BdG dimension 1440, the 20x50 aspect ratio
DISORDER_REALIZATIONS = 3   # per channel; 16 channels -> 49 solves per op
SWEEP_POINTS = 11           # mu from -3 to 3; 22 solves per op
CHAIN_L = 80                # child chain, BdG dimension 320


@dataclass(frozen=True)
class Op:
    op_id: str      # unique within the workload; names the reference file
    task: str
    config: str     # INI text handed to mkc via --config
    disorder_seed: int = None
    reference: str = None   # op_id whose reference output this op shares

    @property
    def ref_id(self):
        return self.reference or self.op_id


def model(kind, t1, d1, mu1, t2=None, d2=None, mu2=None):
    lines = ["[model]", f"kind = {kind}", f"t1 = {t1}", f"delta1 = {d1}", f"mu1 = {mu1}"]
    if kind != "parent":
        lines += [f"t2 = {t2}", f"delta2 = {d2}", f"mu2 = {mu2}"]
    return "\n".join(lines) + "\n"


def section(name, **values):
    lines = [f"[{name}]"] + [f"{k.replace('_', '-')} = {v}" for k, v in values.items()]
    return "\n".join(lines) + "\n"


def _slab(mu1, mu2):
    return model("mkc-perpendicular", 1.0, 1.0, mu1, 1.0, 1.0, mu2) + section(
        "lattice", lx=SLAB[0], ly=SLAB[1]
    )


def _slab_zero_modes(seed):
    # criterion 11's three phases: x-edges, y-edges, perimeter
    phases = {"x-edges": (0.0, 3.0), "y-edges": (3.0, 0.0), "perimeter": (0.0, 0.0)}
    return [
        Op(f"{task}-{phase}", task, _slab(mu1, mu2))
        for task in ("density", "classify")
        for phase, (mu1, mu2) in phases.items()
    ]


def _chain_disorder(seed):
    child = model("mkc-parallel", 1.0, 1.0, 0.0, 1.0, 1.0, 0.0)
    lattice = section("lattice", l=CHAIN_L)

    def op(op_id, disorder_seed, reference=None):
        task = section("task", realizations=DISORDER_REALIZATIONS, seed=disorder_seed)
        return Op(op_id, "disorder", child + lattice + task, disorder_seed, reference)

    return [
        op("disorder-reference", REFERENCE_DISORDER_SEED),
        op("disorder-seeded", seed % 2**31, reference="disorder-reference"),
    ]


def _chain_sweep_mu(seed):
    # CLI defaults on purpose: no --threads and no BLAS-thread override
    text = (
        model("mkc-parallel", 1.0, 1.0, 0.0, 1.0, 1.0, 0.0)
        + section("lattice", l=CHAIN_L)
        + section("task", mu_min=-3.0, mu_max=3.0, mu_points=SWEEP_POINTS, link="equal")
    )
    return [Op("sweep-mu", "sweep-mu", text)]


def _small_tasks(seed):
    # the README's chain, a perpendicular child and the sign-mixed family
    parallel = model("mkc-parallel", 1.0, 1.0, 0.3, 1.0, 1.0, 0.9)
    perp = model("mkc-perpendicular", 1.0, 1.0, 0.5, 1.0, 1.0, 3.0)
    mixed = model("mkc-parallel", 1.0, 0.5, 0.0, -1.0, 0.5, 0.0)
    slab = section("lattice", lx=SLAB[0], ly=SLAB[1])
    return [
        Op("wannier-parallel", "wannier", parallel),
        Op("wannier-perpendicular", "wannier", perp + section("task", fixed_momentum=0.3)),
        Op("quantization-mixed-l30", "quantization", mixed + section("lattice", l=30)),
        Op("classify-readme-l40", "classify", parallel + section("lattice", l=40)),
        Op("winding-parallel", "winding", parallel),
        Op("winding-perpendicular", "winding", perp + slab),
        Op("majorana-points-mixed-l7", "majorana-points", mixed + section("lattice", l=7)),
        Op("majorana-points-perpendicular", "majorana-points", perp + slab),
        Op("symmetry-check-parallel", "symmetry-check", parallel),
        Op("dirac-parallel", "dirac", parallel),
        Op("dirac-perpendicular", "dirac", perp),
    ]


# Why each workload exists is in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    "slab-zero-modes": _slab_zero_modes,
    "chain-disorder": _chain_disorder,
    "chain-sweep-mu": _chain_sweep_mu,
    "small-tasks": _small_tasks,
}


def ops_for(workload, seed):
    """The workload's op list; the seed reaches only the seeded disorder op."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return WORKLOADS[workload](seed)


def pass_orders(n_ops, seed):
    """Endless per-pass op orders, shuffled from the benchmark seed."""
    rng = random.Random(seed)
    order = list(range(n_ops))
    while True:
        rng.shuffle(order)
        yield list(order)
