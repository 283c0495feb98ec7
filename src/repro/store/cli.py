"""Command-line inspection of a result store.

Usage (the store path defaults to ``$REPRO_RESULT_STORE``)::

    python -m repro.store stats  [--store PATH] [--json]
    python -m repro.store vacuum [--store PATH]
    python -m repro.store export [--store PATH] [--output FILE]

``stats`` aggregates entry counts, payload sizes, and recorded solver
seconds per algorithm; ``vacuum`` reclaims file space (it drops no row);
``export`` dumps run metadata as JSON lines (for offline cost-model
analysis) without unpickling any payload.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.store.result_store import ResultStore

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Inspect and maintain a repro result store.")
    store_help = "path to the SQLite store (default: $REPRO_RESULT_STORE)"
    parser.add_argument(
        "--store", default=os.environ.get("REPRO_RESULT_STORE"), help=store_help)
    # --store is also accepted *after* the subcommand ("stats --store p" and
    # "--store p stats" both work); SUPPRESS keeps an absent late flag from
    # clobbering an early one with None.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--store", default=argparse.SUPPRESS, help=store_help)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("stats", parents=[common],
                   help="print aggregate store statistics").add_argument(
        "--json", action="store_true", help="emit machine-readable JSON")
    sub.add_parser("vacuum", parents=[common],
                   help="reclaim file space (drops no row)")
    export = sub.add_parser("export", parents=[common],
                            help="dump run metadata as JSON lines")
    export.add_argument("--output", default=None,
                        help="write to this file instead of stdout")
    return parser


def _print_stats(store: ResultStore, as_json: bool) -> None:
    stats = store.stats()
    if as_json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return
    print(f"store:    {stats['path']}")
    print(f"schema:   v{stats['schema_version']}")
    print(f"entries:  {stats['entries']}")
    print(f"payload:  {stats['total_payload_bytes']} bytes")
    per_algorithm = stats["per_algorithm"]
    if per_algorithm:
        width = max(len(name) for name in per_algorithm)
        print("per algorithm:")
        for name, info in per_algorithm.items():
            print(f"  {name:<{width}}  entries={info['entries']:<6} "
                  f"bytes={info['payload_bytes']:<10} "
                  f"recorded_s={info['recorded_wall_seconds']:.3f}")


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if not args.store:
        print("error: no store path (pass --store or set $REPRO_RESULT_STORE)",
              file=sys.stderr)
        return 2
    with ResultStore(args.store) as store:
        if args.command == "stats":
            _print_stats(store, args.json)
        elif args.command == "vacuum":
            before = len(store)
            store.vacuum()
            print(f"vacuumed {store.path}: {before} -> {len(store)} entries")
        elif args.command == "export":
            text = store.export()
            if args.output:
                with open(args.output, "w") as fp:
                    fp.write(text + ("\n" if text else ""))
                print(f"exported {len(store)} records to {args.output}")
            else:
                print(text)
    return 0
