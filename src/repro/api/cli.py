"""``python -m repro run`` — execute a scenario spec file end to end.

::

    python -m repro run scenarios/epsilon_ladder.toml
    python -m repro run scenario.toml --scale full --export csv
    python -m repro run scenario.json --store results.sqlite --backend queue \
        --autoscale 4 --export json --output sweep.json

The one command the ``scenarios/`` directory promises: any spec file
executes with **zero code changes** — the CLI loads the spec, resolves a
:class:`~repro.api.session.Session` (flags > environment > defaults),
runs it, renders the :class:`ResultTable`, and optionally exports it via
:meth:`ResultTable.to_csv` / :meth:`ResultTable.to_json`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run declarative scenario specs on the repro "
                    "serving stack.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser(
        "run", help="execute a scenario spec file and print its table")
    run.add_argument("spec", help="path to a scenario .toml/.json file")
    run.add_argument("--scale", default="quick",
                     help="scale preset declared in the spec "
                          "(default: quick)")
    run.add_argument("--store", default=None, metavar="PATH",
                     help="persistent result store file "
                          "(default: $REPRO_RESULT_STORE)")
    run.add_argument("--backend", default=None,
                     choices=("serial", "pool", "queue"),
                     help="execution backend (default: $REPRO_BACKEND "
                          "or auto)")
    run.add_argument("--autoscale", type=int, default=None, metavar="N",
                     help="queue-backend supervised worker fleet ceiling "
                          "(default: $REPRO_AUTOSCALE)")
    run.add_argument("--export", default=None, choices=("csv", "json"),
                     help="also export the table in this format")
    run.add_argument("--output", default=None, metavar="PATH",
                     help="export destination (default: <spec stem>.<fmt>)")
    run.add_argument("--markdown", action="store_true",
                     help="print the table as GitHub markdown instead of "
                          "plain text")
    return parser


def _run(args: argparse.Namespace) -> int:
    from repro.api.session import Session, SessionConfig
    from repro.api.spec import load_scenario

    spec_path = Path(args.spec)
    spec = load_scenario(spec_path)
    overrides = {}
    if args.store is not None:
        overrides["store_path"] = args.store
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.autoscale is not None:
        overrides["autoscale"] = args.autoscale
    config = SessionConfig.resolve(**overrides)
    if overrides.get("autoscale", 0) > 0 and config.backend != "queue":
        # An explicitly requested worker fleet must not silently not
        # exist: autoscaling is a queue-backend feature.
        print(f"error: --autoscale needs --backend queue (resolved "
              f"backend: {config.backend or 'auto'})", file=sys.stderr)
        return 2
    session = Session(config)
    run = session.run(spec, scale=args.scale)
    table = run.table()
    print(table.to_markdown() if args.markdown else table.render())
    print(f"\n{len(run)} result(s) in {run.wall_seconds:.2f}s "
          f"[scale={args.scale}]", file=sys.stderr)
    if args.export:
        output = (Path(args.output) if args.output
                  else spec_path.with_suffix(f".{args.export}").name)
        output = Path(output)
        text = (table.to_csv() if args.export == "csv"
                else table.to_json())
        output.write_text(text)
        print(f"exported {args.export} -> {output}", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _run(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - module smoke hook
    sys.exit(main())
