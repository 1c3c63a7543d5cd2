"""Validated run configuration for the command-line front end.

Flat sectioned key = value text with four sections: [model] picks the
Hamiltonian and its parameters, [lattice] the finite geometry, [task] the
computation plus its knobs, [output] where results go.  Unknown keys are
rejected by name, every default is filled in explicitly so the effective
configuration can be echoed verbatim, and a parsed configuration
serializes back to text that reparses equal.
"""

import configparser
import math
import os
from dataclasses import dataclass, field

from .errors import ConfigError
from .models import PARALLEL, PERPENDICULAR, ChildSpec, ParentParams

MODEL_KINDS = ("parent", "mkc-parallel", "mkc-perpendicular")
TASKS = (
    "spectrum",
    "sweep-mu",
    "sweep-length",
    "wannier",
    "winding",
    "majorana-points",
    "quantization",
    "density",
    "disorder",
    "classify",
    "symmetry-check",
    "dirac",
)

_REQUIRED = object()


def _env_threads():
    """MKC_THREADS when set, else the CPU count."""
    env = os.environ.get("MKC_THREADS")
    if env is None:
        return os.cpu_count() or 1
    try:
        n = int(env)
    except ValueError:
        raise ConfigError(f"MKC_THREADS: cannot read {env!r} as an integer")
    if n < 1:
        raise ConfigError(f"MKC_THREADS: must be >= 1, got {n}")
    return n


@dataclass(frozen=True)
class _Key:
    parse: object
    default: object = _REQUIRED
    choices: tuple = None
    kinds: tuple = None  # restrict to model kinds; None means all
    minimum: int = None

    def convert(self, section, name, raw):
        try:
            value = self.parse(raw)
        except (TypeError, ValueError):
            raise ConfigError(
                f"[{section}] {name}: cannot read {raw!r} as {self.parse.__name__}"
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"[{section}] {name}: must be a finite number, got {raw!r}")
        if self.choices is not None and value not in self.choices:
            raise ConfigError(
                f"[{section}] {name}: must be one of {', '.join(map(str, self.choices))}, got {raw!r}"
            )
        if self.minimum is not None and value is not None and value < self.minimum:
            raise ConfigError(f"[{section}] {name}: must be >= {self.minimum}, got {value}")
        return value


def _int(raw):
    if isinstance(raw, int):
        return raw
    text = raw.strip()
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not an integer")


def _float(raw):
    if isinstance(raw, float):
        return raw
    return float(raw.strip())


def _str(raw):
    return raw.strip()


def _opt(parse):
    def inner(raw):
        if isinstance(raw, str) and raw.strip() == "":
            return None
        return parse(raw)

    inner.__name__ = parse.__name__
    return inner


_MODEL_KEYS = {
    "kind": _Key(_str, choices=MODEL_KINDS),
    "t1": _Key(_float),
    "delta1": _Key(_float),
    "mu1": _Key(_float),
    "t2": _Key(_float, kinds=("mkc-parallel", "mkc-perpendicular")),
    "delta2": _Key(_float, kinds=("mkc-parallel", "mkc-perpendicular")),
    "mu2": _Key(_float, kinds=("mkc-parallel", "mkc-perpendicular")),
}

_CHAIN_KEYS = {
    "l": _Key(_int),
    "bc": _Key(_str, default="open", choices=("open", "periodic")),
}
_SLAB_KEYS = {
    "lx": _Key(_int),
    "ly": _Key(_int),
    "bcx": _Key(_str, default="open", choices=("open", "periodic")),
    "bcy": _Key(_str, default="open", choices=("open", "periodic")),
}

# tasks whose lattice section is required (chain kinds use L/bc, the
# perpendicular kind uses Lx/Ly/bcx/bcy)
_NEEDS_LATTICE = {
    "spectrum",
    "sweep-mu",
    "majorana-points",
    "quantization",
    "density",
    "disorder",
    "classify",
}
# tasks whose closed forms hold for open boundaries only
_OPEN_ONLY = ("majorana-points", "quantization")

_TASK_KEYS = {
    "spectrum": {},
    "sweep-mu": {
        "mu-min": _Key(_float),
        "mu-max": _Key(_float),
        "mu-points": _Key(_int, minimum=1),
        "link": _Key(_str, default="equal", choices=("equal", "opposite", "fixed")),
        "n-modes": _Key(_opt(_int), default=None, minimum=1),
    },
    "sweep-length": {
        "l-min": _Key(_int),
        "l-max": _Key(_int),
        "l-step": _Key(_int, default=1, minimum=1),
        "n-modes": _Key(_int, default=6, minimum=1),
        "bc": _Key(_str, default="open", choices=("open", "periodic")),
    },
    "wannier": {
        "loop-points": _Key(_int, default=1001, minimum=4),
        "fixed-momentum": _Key(_float, default=0.0),
    },
    "winding": {"samples": _Key(_int, default=4096, minimum=3)},
    "majorana-points": {},
    "quantization": {
        "grid-points": _Key(_int, default=2001, minimum=2),  # validated and echoed only
        "mu-min": _Key(_opt(_float), default=None),
        "mu-max": _Key(_opt(_float), default=None),
    },
    "density": {"zero-tol": _Key(_float, default=1e-8)},
    "disorder": {
        "channel": _Key(_opt(_str), default=None),
        "amplitude": _Key(_float, default=0.2),
        "realizations": _Key(_int, default=50, minimum=1),
        "seed": _Key(_int, default=42),
        "zero-tol": _Key(_float, default=1e-8),
        "mu-min": _Key(_opt(_float), default=None),
        "mu-max": _Key(_opt(_float), default=None),
        "mu-points": _Key(_opt(_int), default=None, minimum=1),
    },
    "classify": {"zero-tol": _Key(_opt(_float), default=1e-8)},
    "symmetry-check": {"k-points": _Key(_int, default=64, minimum=1)},
    "dirac": {
        "kx": _Key(_float, default=0.01),
        "ky": _Key(_float, default=0.01),
    },
}

# tasks that only make sense for some model kinds
_TASK_KINDS = {
    "sweep-mu": ("parent", "mkc-parallel"),
    "sweep-length": ("parent", "mkc-parallel"),
    "quantization": ("mkc-parallel",),
    "classify": ("mkc-parallel", "mkc-perpendicular"),
    "symmetry-check": ("mkc-parallel", "mkc-perpendicular"),
    "dirac": ("mkc-parallel", "mkc-perpendicular"),
}


@dataclass
class RunConfig:
    """Effective configuration: every default resolved and recorded."""

    kind: str
    model: object
    lattice_values: dict
    task: str
    options: dict
    output_path: str
    output_format: str
    threads: int

    def echo(self):
        """Effective key = value map per section, suitable for re-parsing.

        It covers only the keys that determine the numbers (model, lattice,
        task options); thread count and output routing are execution detail
        and must not alter emitted bytes, so they are left out.
        """
        model = {"kind": self.kind, **{
            k: _format_value(v) for k, v in self._model_values().items()
        }}
        task = {"name": self.task}
        task.update({k: _format_value(v) for k, v in sorted(self.options.items())})
        out = {"model": model}
        if self.lattice_values:
            out["lattice"] = {
                k: _format_value(v) for k, v in sorted(self.lattice_values.items())
            }
        out["task"] = task
        return out

    def _model_values(self):
        if self.kind == "parent":
            return {"t1": self.model.t, "delta1": self.model.delta, "mu1": self.model.mu}
        return {
            "t1": self.model.p1.t,
            "delta1": self.model.p1.delta,
            "mu1": self.model.p1.mu,
            "t2": self.model.p2.t,
            "delta2": self.model.p2.delta,
            "mu2": self.model.p2.mu,
        }


def _format_value(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _read_sections(text):
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), strict=True
    )
    parser.optionxform = lambda name: name.strip().lower()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}")
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _take(section_name, raw, schema, kind=None):
    out = {}
    for key, spec in schema.items():
        if key in raw:
            if spec.kinds is not None and kind is not None and kind not in spec.kinds:
                raise ConfigError(
                    f"[{section_name}] {key}: not a {kind} parameter"
                )
            out[key] = spec.convert(section_name, key, raw.pop(key))
        elif spec.default is _REQUIRED:
            if spec.kinds is None or kind is None or kind in spec.kinds:
                raise ConfigError(f"[{section_name}] missing required key {key}")
        else:
            out[key] = spec.default
    for key in sorted(raw):
        raise ConfigError(f"[{section_name}] unknown key {key}")
    return out


def parse_config(text, cli_task=None, cli_threads=None):
    """Validate config text into a RunConfig with all defaults resolved.

    The thread count comes from cli_threads, else [task] threads, else the
    MKC_THREADS environment variable, else the CPU count; a source below
    the one that gives the value is never read.  It is validated and
    echoed but drives nothing: sweeps run serially.
    """
    sections = _read_sections(text)
    known = {"model", "lattice", "task", "output"}
    for name in sections:
        if name not in known:
            raise ConfigError(f"unknown section [{name}]")
    if "model" not in sections:
        raise ConfigError("missing section [model]")

    model_raw = dict(sections["model"])
    if "kind" not in model_raw:
        raise ConfigError("[model] missing required key kind")
    kind = _MODEL_KEYS["kind"].convert("model", "kind", model_raw["kind"])
    model_vals = _take("model", model_raw, _MODEL_KEYS, kind=kind)
    p1 = ParentParams(t=model_vals["t1"], delta=model_vals["delta1"], mu=model_vals["mu1"])
    if kind == "parent":
        model = p1
    else:
        p2 = ParentParams(t=model_vals["t2"], delta=model_vals["delta2"], mu=model_vals["mu2"])
        orientation = PARALLEL if kind == "mkc-parallel" else PERPENDICULAR
        model = ChildSpec(p1=p1, p2=p2, orientation=orientation)

    task_raw = dict(sections.get("task", {}))
    task = task_raw.pop("name", None)
    if task is not None:
        task = task.strip()
    if cli_task is not None:
        if task is not None and task != cli_task:
            raise ConfigError(
                f"[task] name: config says {task!r} but the command line says {cli_task!r}"
            )
        task = cli_task
    if task is None:
        raise ConfigError("[task] missing required key name")
    if task not in TASKS:
        raise ConfigError(f"[task] name: unknown task {task!r}")
    if task in _TASK_KINDS and kind not in _TASK_KINDS[task]:
        raise ConfigError(f"task {task} does not apply to a {kind} model")
    threads = task_raw.pop("threads", None)
    if threads is not None:
        threads = _Key(_int, minimum=1).convert("task", "threads", threads)
    options = _take("task", task_raw, _TASK_KEYS[task])

    lattice_values = {}
    needs_lattice = task in _NEEDS_LATTICE or (
        task == "winding" and kind == "mkc-perpendicular"
    )
    if needs_lattice or "lattice" in sections:
        if "lattice" not in sections:
            raise ConfigError(f"task {task} needs a [lattice] section")
        schema = _SLAB_KEYS if kind == "mkc-perpendicular" else _CHAIN_KEYS
        lattice_values = _take("lattice", dict(sections["lattice"]), schema)
    if task in _OPEN_ONLY and "periodic" in lattice_values.values():
        raise ConfigError(f"task {task} computes open-boundary points: [lattice] must be open")

    out_raw = dict(sections.get("output", {}))
    out_schema = {
        "path": _Key(_str, default="-"),
        "format": _Key(_str, default="csv", choices=("csv", "json")),
    }
    out_vals = _take("output", out_raw, out_schema)

    if cli_threads is not None:
        if cli_threads < 1:
            raise ConfigError(f"--threads: must be >= 1, got {cli_threads}")
        threads = cli_threads
    elif threads is None:
        threads = _env_threads()

    return RunConfig(
        kind=kind,
        model=model,
        lattice_values=lattice_values,
        task=task,
        options=options,
        output_path=out_vals["path"],
        output_format=out_vals["format"],
        threads=threads,
    )

