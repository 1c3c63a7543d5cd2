"""Command-line front end: mkc <task> --config <path> [options].

Exit codes: 0 on success, 2 for configuration problems, 3 for well-defined
numerical failures.  Output bytes depend only on the effective
configuration; wall-clock timing goes to stderr so reruns stay
byte-identical.
"""

import argparse
import json
import sys
import time

from . import __version__
from .config import TASKS, _format_value, parse_config
from .errors import ConfigError, NumericalError
from .tasks import run_task


def render_csv(cfg, payload):
    """Header plus rows, 17 significant digits, with the config echoed
    as leading comment lines.

    A cell that is the very object (is, never ==) in the same column of the
    previous row reuses that cell's text, so a value a task repeats down a
    column is formatted once.
    """
    lines = []
    for section, values in cfg.echo().items():
        for key, value in values.items():
            lines.append(f"# {section}.{key} = {value}")
    lines.append(",".join(payload["columns"]))
    prev, texts = (), []
    for row in payload["rows"]:
        texts = [t if v is p else _format_value(v) for v, p, t in zip(row, prev, texts)]
        if len(texts) < len(row):
            texts += map(_format_value, row[len(texts) :])
        lines.append(",".join(texts))
        prev = row
    return "\n".join(lines) + "\n"


def render_json(cfg, payload):
    doc = {
        "config": cfg.echo(),
        "payload": {
            "columns": payload["columns"],
            "rows": payload["rows"],
        },
        "task": cfg.task,
        "version": __version__,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write(path, text):
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def build_parser():
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
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}")
        cfg = parse_config(text, cli_task=args.task, cli_threads=args.threads)
        if args.out is not None:
            cfg.output_path = args.out
        if args.format is not None:
            cfg.output_format = args.format
        payload = run_task(cfg)
        render = render_csv if cfg.output_format == "csv" else render_json
        _write(cfg.output_path, render(cfg, payload))
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
