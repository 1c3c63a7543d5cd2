"""Command-line front end: mkc <task> --config <path> [options].

Exit codes: 0 on success, 2 for configuration problems, 3 for well-defined
numerical failures.  Output bytes depend only on the effective
configuration; wall-clock timing goes to stderr so reruns stay
byte-identical.
"""

import argparse
import contextlib
import functools
import json
import sys
import time

from . import __version__
from .config import TASKS, _format_value, parse_config
from .errors import ConfigError, NumericalError
from .tasks import run_task


# the %-format that _format_value amounts to for a column of one exact type
_COLUMN_FORMATS = {float: "%.17g", int: "%d", str: "%s"}


def _block_lines(cells, cols):
    """The CSV lines of one Rows block, as in _format_value cell by cell.

    Each shared cell is formatted once into a line template, and the
    template fills the block's rows with one map over its columns.  A
    column of one exact type is formatted by the template itself; any
    other column goes through _format_value per cell first.
    """
    spec, columns = [], []
    for k, cell in enumerate(cells):
        if k not in cols:
            spec.append(_format_value(cell).replace("%", "%%"))
            continue
        types = set(map(type, cell))
        fmt = _COLUMN_FORMATS.get(types.pop()) if len(types) == 1 else None
        if fmt is None:
            fmt, cell = "%s", list(map(_format_value, cell))
        spec.append(fmt)
        columns.append(cell)
    line = ",".join(spec) + "\n"
    if not columns:
        return line % ()
    return "".join(map(line.__mod__, zip(*columns)))


def render_csv(cfg, payload, out):
    """Write the config as leading comment lines, the header and the rows,
    17 significant digits, to the text stream out.

    The rows go out block by block (tasks.Rows): each block's text is
    written before the next block is formatted.
    """
    head = [
        f"# {section}.{key} = {value}"
        for section, values in cfg.echo().items()
        for key, value in values.items()
    ]
    head.append(",".join(payload["columns"]))
    out.write("\n".join(head) + "\n")
    for block in payload["rows"].blocks:
        out.write(_block_lines(*block))


def render_json(cfg, payload, out):
    """Write the config, the payload and the version as one JSON document."""
    doc = {
        "config": cfg.echo(),
        "payload": {
            "columns": payload["columns"],
            "rows": list(payload["rows"]),
        },
        "task": cfg.task,
        "version": __version__,
    }
    out.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _open_sink(path):
    """The output stream for path ("-" is stdout); ConfigError if it cannot be opened."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot open output {path!r}: {exc}")


@functools.cache
def build_parser():
    """The command-line parser, built once per process: main may run many times."""
    parser = argparse.ArgumentParser(
        prog="mkc",
        description="Kitaev-chain and product-chain numerical tasks",
    )
    parser.add_argument("task", choices=TASKS, help="computation to run")
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--out", default=None, help="output path (default: config, else stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default: config, else csv)")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted and validated; no effect (sweeps run serially)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}")
        cfg = parse_config(text, cli_task=args.task, cli_threads=args.threads)
        if args.out is not None:
            cfg.output_path = args.out
        if args.format is not None:
            cfg.output_format = args.format
        payload = run_task(cfg)
        render = render_csv if cfg.output_format == "csv" else render_json
        with _open_sink(cfg.output_path) as out:
            render(cfg, payload, out)
    except ConfigError as exc:
        print(f"mkc: config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"mkc: numerical error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 3
    print(f"mkc: {args.task} finished in {time.perf_counter() - started:.3f}s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
