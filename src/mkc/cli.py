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
from itertools import repeat

from . import __version__
from .config import TASKS, _format_value, parse_config
from .errors import ConfigError, NumericalError
from .tasks import ChiralLevels, run_task


# what _format_value does to a cell of one of these exact types
_TEXT = {float: "%.17g".__mod__, int: str, str: str}


def _column_text(cell, ranges):
    """The text of each value of one column cell, as _format_value gives it.

    A ChiralLevels column formats each run of equal magnitudes (they
    ascend, and ring levels pair) once with %.17g, and its negative as "-"
    + that text (nan for a NaN).  A range is formatted once per ranges dict, which the
    blocks of one render share.  A list of one exact type in _TEXT is
    mapped through its function, any other list through _format_value.
    """
    if isinstance(cell, ChiralLevels):
        fmt, pos, neg = _TEXT[float], [], []
        last = text = minus = None
        # the positives are never more than the negatives
        for v in cell.magnitudes[: cell.negatives]:
            if v != last:
                last, text = v, fmt(v)
                minus = "-" + text if v == v else text
            pos.append(text)
            neg.append(minus)
        neg.reverse()
        return neg + pos[: cell.positives]
    if isinstance(cell, range):
        if cell not in ranges:
            ranges[cell] = list(map(str, cell))
        return ranges[cell]
    types = set(map(type, cell))
    fmt = _TEXT.get(types.pop(), _format_value) if len(types) == 1 else _format_value
    return list(map(fmt, cell))


def _block_lines(cells, cols, ranges):
    """The CSV lines of one Rows block, as _format_value makes them cell by cell.

    Each shared cell is formatted once.  Those before the first column
    (a sweep point's mu, mu2 and bc) join the line breaks between rows;
    each later one is repeated into every row.
    """
    if not cols:
        return ",".join(map(_format_value, cells)) + "\n"
    first = cols[0]
    parts = [
        _column_text(c, ranges) if k in cols else repeat(_format_value(c))
        for k, c in enumerate(cells[first:], first)
    ]
    if not len(parts[0]):
        return ""
    head = ",".join([*map(_format_value, cells[:first]), ""])
    return head + ("\n" + head).join(map(",".join, zip(*parts))) + "\n"


def render_csv(cfg, payload, out):
    """Write the config as leading comment lines, the header and the rows,
    17 significant digits, to the text stream out.

    The rows go out block by block (tasks.Rows): each block's text is
    written before the next block is formatted.  The bytes are those of
    _format_value on every cell; each +-E level of a ChiralLevels column
    is formatted once, and each range column once per call.
    """
    head = [
        f"# {section}.{key} = {value}"
        for section, values in cfg.echo().items()
        for key, value in values.items()
    ]
    head.append(",".join(payload["columns"]))
    out.write("\n".join(head) + "\n")
    ranges = {}
    for block in payload["rows"].blocks:
        out.write(_block_lines(*block, ranges))


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
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        try:
            with open(args.config, encoding="utf-8-sig") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}")
        cfg = parse_config(text, cli_task=args.task)
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
