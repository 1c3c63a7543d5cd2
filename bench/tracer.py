"""Per-layer spans for mkc, recorded from outside the package.

install() wraps every public function of mkc's modules, plus numpy's
eigh and eigvalsh, and puts each wrapper into every mkc namespace that
holds the original: tasks, boundary and disorder import build_chain,
build_slab and diagonalize by name, so patching lattice alone would miss
their calls.  uninstall() puts the originals back.

A span's parent is the innermost open span of its thread.  The sweep
workers of lattice run in a thread pool; a span opened on a worker thread
with nothing open there takes the innermost open span of the installing
thread as its parent, which is the sweep call that started the pool.
Self time is a span's duration minus the union of its children's
intervals.
"""

import functools
import inspect
import sys
import threading
import time

import numpy as np

LAYERS = ("config", "tasks", "cli", "lattice", "boundary", "disorder", "topology", "models")

# (name, unit) of every metric layer_metrics returns, in output order
METRICS = (
    ("lattice.build_s", "s"),
    ("lattice.check_s", "s"),
    ("lattice.eigh_s", "s"),
    ("lattice.solves", "count"),
    ("lattice.solve_n3", "count"),
    ("lattice.complex_solves", "count"),
    ("lattice.matrix_mb", "MB"),
    ("lattice.sweep_efficiency", "ratio"),
    ("disorder.solve_s", "s"),
    ("disorder.solves", "count"),
    ("disorder.complex_solves", "count"),
    ("disorder.solve_n3", "count"),
    ("disorder.perturb_s", "s"),
    ("disorder.self_s", "s"),
    ("disorder.useful_eig_ratio", "ratio"),
    ("boundary.classify_s", "s"),
    ("boundary.mmzm_calls", "count"),
    ("boundary.quantization_s", "s"),
    ("topology.wannier_s", "s"),
    ("topology.bloch_solves", "count"),
    ("config.parse_s", "s"),
    ("cli.render_s", "s"),
    ("cli.rows", "count"),
    ("tasks.self_s", "s"),
)

# counts that must repeat exactly between runs of the same code
EXACT_COUNTS = (
    "lattice.solves",
    "lattice.solve_n3",
    "lattice.complex_solves",
    "lattice.matrix_mb",
    "disorder.solves",
    "disorder.solve_n3",
    "disorder.complex_solves",
    "disorder.useful_eig_ratio",
    "boundary.mmzm_calls",
    "topology.bloch_solves",
    "cli.rows",
)

NUMPY_SOLVES = ("numpy.eigh", "numpy.eigvalsh")


class Span:
    __slots__ = ("name", "parent", "start", "end", "info", "children")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.info = {}
        self.children = []

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start

    def self_time(self):
        covered, reach = 0.0, self.start
        for c in sorted(self.children, key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.duration - covered


def _solve_info(span, args, kwargs, result):
    a = args[0]
    dim = a.shape[-1]
    batch = int(np.prod(a.shape[:-2], dtype=np.int64))
    span.info.update(
        dim=dim, batch=batch, complex=bool(np.iscomplexobj(a)), n3=batch * dim**3
    )


def _matrix_info(span, args, kwargs, result):
    span.info["mb"] = result.nbytes / 1e6


def _threads_info(fn):
    sig = inspect.signature(fn)

    def info(span, args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        span.info["threads"] = max(int(bound.arguments["threads"] or 1), 1)

    return info


def _sweep_info(span, args, kwargs, result):
    # the verdict reads the n_zero smallest |E| of every disordered solve
    per_solve = len(result.channels) * result.realizations
    span.info["reads"] = int(result.zero_counts.sum()) * per_solve


def _render_info(span, args, kwargs, result):
    span.info["rows"] = len(args[1]["rows"])


class Tracer:
    """Installs span-recording wrappers; collects spans until clear()."""

    def __init__(self):
        import mkc.cli  # noqa: F401  (imports every mkc layer)

        self.modules = [sys.modules[f"mkc.{name}"] for name in LAYERS]
        self.spans = []
        self._local = threading.local()
        self._home_stack = []
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, info=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            home = tracer._home_stack
            parent = stack[-1] if stack else (home[-1] if home else None)
            span = Span(name, parent)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                info(span, args, kwargs, result)
            return result

        return wrapper

    def _info_for(self, name, fn):
        if name in ("lattice.build_chain", "lattice.build_slab"):
            return _matrix_info
        if name in ("lattice.spectrum_vs_mu", "lattice.low_energy_vs_length"):
            return _threads_info(fn)
        if name == "disorder.robustness_sweep":
            return _sweep_info
        if name in ("cli.render_csv", "cli.render_json"):
            return _render_info
        return None

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._home_stack
        wrappers = {}
        for mod in self.modules:
            layer = mod.__name__.split(".")[-1]
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                full = f"{layer}.{name}"
                wrappers[fn] = self._wrap(full, fn, self._info_for(full, fn))
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        for name in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, name)
            self._patches.append((np.linalg, name, fn))
            setattr(np.linalg, name, self._wrap(f"numpy.{name}", fn, _solve_info))

    def uninstall(self):
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches = []

    def clear(self):
        self.spans = []


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, as {name: number}."""
    for s in spans:
        s.children = []
    for s in spans:
        if s.parent is not None:
            s.parent.children.append(s)

    def named(*names):
        return [s for s in spans if s.name in names]

    def solves_under(*parents):
        return [
            s for s in spans
            if s.name in NUMPY_SOLVES and s.parent is not None and s.parent.name in parents
        ]

    def total(items):
        return sum(s.duration for s in items)

    lattice_solves = solves_under("lattice.diagonalize")
    disorder_solves = solves_under("disorder.robustness_sweep")
    bloch_solves = [
        s for s in spans
        if s.name in NUMPY_SOLVES and s.parent is not None and s.parent.layer == "topology"
    ]
    builds = named("lattice.build_chain", "lattice.build_slab")
    sweeps = named("lattice.spectrum_vs_mu", "lattice.low_energy_vs_length")
    sweep_capacity = sum(s.duration * s.info["threads"] for s in sweeps)
    disorder_computed = sum(s.info["dim"] * s.info["batch"] for s in disorder_solves)
    disorder_reads = sum(s.info["reads"] for s in named("disorder.robustness_sweep"))

    return {
        "lattice.build_s": total(builds),
        "lattice.check_s": sum(s.self_time() for s in named("lattice.diagonalize")),
        "lattice.eigh_s": total(lattice_solves),
        "lattice.solves": len(lattice_solves),
        "lattice.solve_n3": sum(s.info["n3"] for s in lattice_solves),
        "lattice.complex_solves": sum(s.info["complex"] for s in lattice_solves),
        "lattice.matrix_mb": max([0.0] + [s.info["mb"] for s in builds]),
        "lattice.sweep_efficiency": (
            sum(total(s.children) for s in sweeps) / sweep_capacity if sweep_capacity else 0.0
        ),
        "disorder.solve_s": total(disorder_solves),
        "disorder.solves": len(disorder_solves),
        "disorder.complex_solves": sum(s.info["complex"] for s in disorder_solves),
        "disorder.solve_n3": sum(s.info["n3"] for s in disorder_solves),
        "disorder.perturb_s": total(named("disorder.apply_onsite_disorder")),
        "disorder.self_s": sum(s.self_time() for s in named("disorder.robustness_sweep")),
        "disorder.useful_eig_ratio": (
            disorder_reads / disorder_computed if disorder_computed else 0.0
        ),
        "boundary.classify_s": sum(
            s.self_time() for s in named("boundary.classify_zero_modes")
        ),
        "boundary.mmzm_calls": len(named("boundary.mmzm_classify")),
        "boundary.quantization_s": total(named("boundary.quantization_points")),
        "topology.wannier_s": total(
            named(
                "topology.wannier_center_parent",
                "topology.wannier_centers_parallel",
                "topology.wannier_centers_perp",
            )
        ),
        "topology.bloch_solves": sum(s.info["batch"] for s in bloch_solves),
        "config.parse_s": total(named("config.parse_config")),
        "cli.render_s": total(named("cli.render_csv", "cli.render_json")),
        "cli.rows": sum(s.info["rows"] for s in named("cli.render_csv", "cli.render_json")),
        "tasks.self_s": sum(s.self_time() for s in named("tasks.run_task")),
    }
