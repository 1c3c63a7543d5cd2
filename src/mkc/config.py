"""Validated run configuration for the command-line front end.

Flat sectioned key = value text with four sections: [model] picks the
Hamiltonian and its parameters, [lattice] the finite geometry, [task] the
computation plus its knobs, [output] where results go.  Unknown keys are
rejected by name, every default is filled in explicitly so the effective
configuration can be echoed verbatim, and a parsed configuration
serializes back to text that reparses equal.

The text is read in one pass over its lines.  A line is a [name] header on
its own, a key = value pair, blank, or a comment whose first non-blank
character is # or ;.  The key ends at the first = and is stripped and
lowercased; the value is stripped and may be empty.  Text after a value,
; included, belongs to the value.  ConfigError names the line of a key line
before any header, a line that is neither a header nor has an =, an empty
key, text after a header, a repeated section or key, and a line indented
deeper than the key line before it (there are no multi-line values).
There is no [DEFAULT] section and no interpolation.
"""

import math
from dataclasses import dataclass

from .errors import ConfigError
from .lattice import ChainLattice, SlabLattice
from .models import PARALLEL, PERPENDICULAR, ChildSpec, ParentParams

MODEL_KINDS = ("parent", "mkc-parallel", "mkc-perpendicular")
_CHAIN_KINDS = ("parent", "mkc-parallel")
_CHILD_KINDS = ("mkc-parallel", "mkc-perpendicular")

_REQUIRED = object()


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
    "t2": _Key(_float, kinds=_CHILD_KINDS),
    "delta2": _Key(_float, kinds=_CHILD_KINDS),
    "mu2": _Key(_float, kinds=_CHILD_KINDS),
}

# keys in the field order of the lattice they build
_CHAIN_KEYS = {
    "l": _Key(_int, minimum=1),
    "bc": _Key(_str, default="open", choices=("open", "periodic")),
}
_SLAB_KEYS = {
    "lx": _Key(_int, minimum=3),
    "ly": _Key(_int, minimum=3),
    "bcx": _Key(_str, default="open", choices=("open", "periodic")),
    "bcy": _Key(_str, default="open", choices=("open", "periodic")),
}


@dataclass(frozen=True)
class _Task:
    keys: dict                  # the [task] keys besides name
    kinds: tuple = MODEL_KINDS  # the model kinds the task applies to
    lattice: tuple = ()         # the model kinds whose [lattice] section is required
    open_only: bool = False     # its closed forms hold for open boundaries only
    together: tuple = ()        # optional keys given all or none
    ordered: tuple = ()         # (low, "<" or "<=", high): their order where both are given

    def check(self, options):
        """ConfigError unless options keep the rules that join keys."""
        given = [options[k] is not None for k in self.together]
        if any(given) and not all(given):
            *first, last = self.together
            raise ConfigError(f"[task] {', '.join(first)} and {last} must be given together")
        if self.ordered:
            low, op, high = self.ordered
            a, b = options[low], options[high]
            if a is not None and b is not None and not (a < b if op == "<" else a <= b):
                raise ConfigError(
                    f"[task] {low} must be {op} {high}, got {a} {'>=' if op == '<' else '>'} {b}"
                )


_TASKS = {
    "spectrum": _Task({}, lattice=MODEL_KINDS),
    "sweep-mu": _Task({
        "mu-min": _Key(_float),
        "mu-max": _Key(_float),
        "mu-points": _Key(_int, minimum=1),
        "link": _Key(_str, default="equal", choices=("equal", "opposite", "fixed")),
        "n-modes": _Key(_opt(_int), default=None, minimum=1),
    }, _CHAIN_KINDS, MODEL_KINDS),
    "sweep-length": _Task({
        "l-min": _Key(_int),
        "l-max": _Key(_int),
        "l-step": _Key(_int, default=1, minimum=1),
        "n-modes": _Key(_int, default=6, minimum=1),
        "bc": _Key(_str, default="open", choices=("open", "periodic")),
    }, _CHAIN_KINDS, ordered=("l-min", "<=", "l-max")),
    "wannier": _Task({
        "loop-points": _Key(_int, default=1001, minimum=4),  # validated and echoed only
        "fixed-momentum": _Key(_float, default=0.0),
    }),
    "winding": _Task(
        {"samples": _Key(_int, default=4096, minimum=3)},  # validated and echoed only
        lattice=("mkc-perpendicular",),
    ),
    "majorana-points": _Task({}, lattice=MODEL_KINDS, open_only=True),
    "quantization": _Task({
        "grid-points": _Key(_int, default=2001, minimum=2),  # validated and echoed only
        "mu-min": _Key(_opt(_float), default=None),
        "mu-max": _Key(_opt(_float), default=None),
    }, ("mkc-parallel",), MODEL_KINDS, open_only=True,
        together=("mu-min", "mu-max"), ordered=("mu-min", "<", "mu-max")),
    "density": _Task({"zero-tol": _Key(_float, default=1e-8)}, lattice=MODEL_KINDS),
    "disorder": _Task({
        "channel": _Key(_opt(_str), default=None),
        "amplitude": _Key(_float, default=0.2),
        "realizations": _Key(_int, default=50, minimum=1),
        "seed": _Key(_int, default=42),
        "zero-tol": _Key(_float, default=1e-8),
        "mu-min": _Key(_opt(_float), default=None),
        "mu-max": _Key(_opt(_float), default=None),
        "mu-points": _Key(_opt(_int), default=None, minimum=1),
    }, lattice=MODEL_KINDS, together=("mu-min", "mu-max", "mu-points")),
    "classify": _Task({"zero-tol": _Key(_opt(_float), default=1e-8)}, _CHILD_KINDS, MODEL_KINDS),
    "symmetry-check": _Task({"k-points": _Key(_int, default=64, minimum=1)}, _CHILD_KINDS),
    "dirac": _Task({
        "kx": _Key(_float, default=0.01),
        "ky": _Key(_float, default=0.01),
    }, _CHILD_KINDS),
}
TASKS = tuple(_TASKS)


@dataclass
class RunConfig:
    """Effective configuration: every default resolved and recorded."""

    model: object       # ParentParams or ChildSpec
    lattice: object     # ChainLattice, SlabLattice or None
    task: str
    options: dict
    output_path: str
    output_format: str

    # Sweeps run serially; the constant stays only for bench/worker.py.
    threads = 1

    @property
    def kind(self):
        if isinstance(self.model, ParentParams):
            return "parent"
        return "mkc-parallel" if self.model.orientation == PARALLEL else "mkc-perpendicular"

    def echo(self):
        """Effective key = value map per section, suitable for re-parsing.

        It covers only the keys that determine the numbers (model, lattice,
        task options); output routing is execution detail and must not
        alter emitted bytes, so it is left out.
        """
        model = {"kind": self.kind}
        parents = [self.model] if self.kind == "parent" else [self.model.p1, self.model.p2]
        for i, p in enumerate(parents, 1):
            model.update({f"t{i}": p.t, f"delta{i}": p.delta, f"mu{i}": p.mu})
        out = {"model": {k: _format_value(v) for k, v in model.items()}}
        if self.lattice is not None:
            fields = sorted((k.lower(), v) for k, v in vars(self.lattice).items())
            out["lattice"] = {k: _format_value(v) for k, v in fields}
        options = sorted(self.options.items())
        out["task"] = {"name": self.task, **{k: _format_value(v) for k, v in options}}
        return out


def _format_value(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _read_sections(text):
    """{section: {key: value}} of config text, read in one pass over its lines."""
    sections = {}
    section = key_indent = None
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            continue
        indent = len(line) - len(line.lstrip())
        if key_indent is not None and indent > key_indent:
            raise _unreadable(number, "indented line continues a value", line)
        if stripped[0] == "[":
            name = stripped[1:-1]
            if stripped[-1] != "]" or not name:
                raise _unreadable(number, "a section header must be [name] alone", line)
            if name in sections:
                raise _unreadable(number, f"repeated section [{name}]", line)
            section = sections[name] = {}
            key_indent = None
            continue
        if section is None:
            raise _unreadable(number, "no section header before this line", line)
        key, eq, value = stripped.partition("=")
        key = key.strip().lower()
        if not eq:
            raise _unreadable(number, "expected key = value", line)
        if not key:
            raise _unreadable(number, "empty key", line)
        if key in section:
            raise _unreadable(number, f"repeated key {key}", line)
        section[key] = value.strip()
        key_indent = indent
    return sections


def _unreadable(number, problem, line):
    return ConfigError(f"cannot parse config: line {number}: {problem}: {line.strip()!r}")


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


def _model(raw):
    """The kind and the ParentParams or ChildSpec of a [model] section."""
    if "kind" not in raw:
        raise ConfigError("[model] missing required key kind")
    kind = _MODEL_KEYS["kind"].convert("model", "kind", raw["kind"])
    vals = _take("model", raw, _MODEL_KEYS, kind=kind)
    p1 = ParentParams(t=vals["t1"], delta=vals["delta1"], mu=vals["mu1"])
    if kind == "parent":
        return kind, p1
    p2 = ParentParams(t=vals["t2"], delta=vals["delta2"], mu=vals["mu2"])
    return kind, ChildSpec(p1, p2, PARALLEL if kind == "mkc-parallel" else PERPENDICULAR)


def parse_config(text, cli_task=None):
    """Validate config text into a RunConfig with all defaults resolved.

    A [lattice] section is validated whenever it is given, and required
    where the task's record asks for it.  The rules that join task keys
    (_Task.check) are checked here too, so every config that parses runs.
    """
    sections = _read_sections(text)
    for name in sections:
        if name not in ("model", "lattice", "task", "output"):
            raise ConfigError(f"unknown section [{name}]")
    if "model" not in sections:
        raise ConfigError("missing section [model]")
    kind, model = _model(dict(sections["model"]))

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
    if task not in _TASKS:
        raise ConfigError(f"[task] name: unknown task {task!r}")
    spec = _TASKS[task]
    if kind not in spec.kinds:
        raise ConfigError(f"task {task} does not apply to a {kind} model")
    options = _take("task", task_raw, spec.keys)
    spec.check(options)

    lattice = None
    if "lattice" in sections:
        slab = kind == "mkc-perpendicular"
        vals = _take("lattice", dict(sections["lattice"]), _SLAB_KEYS if slab else _CHAIN_KEYS)
        lattice = (SlabLattice if slab else ChainLattice)(*vals.values())
        if spec.open_only and "periodic" in vals.values():
            raise ConfigError(f"task {task} computes open-boundary points: [lattice] must be open")
    elif kind in spec.lattice:
        raise ConfigError(f"task {task} needs a [lattice] section")

    out_schema = {
        "path": _Key(_str, default="-"),
        "format": _Key(_str, default="csv", choices=("csv", "json")),
    }
    out = _take("output", dict(sections.get("output", {})), out_schema)
    return RunConfig(model, lattice, task, options, out["path"], out["format"])
