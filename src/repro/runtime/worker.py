"""Stand-alone queue worker: drain leased tasks, publish results via the store.

::

    python -m repro.runtime.worker --store PATH [--worker-id ID]
        [--lease-s S] [--poll-s S] [--idle-exit S]

A worker is the distributed half of the ``"queue"`` execution backend:
it opens the shared store file, leases tasks from the ``task_queue``
table, computes them through the same registry dispatch every other
backend uses, and writes successful results into the
:class:`~repro.store.result_store.ResultStore` — in the same transaction
that marks the row ``done``, so a worker killed half-way leaves neither
— where the submitting
:class:`~repro.runtime.backends.queue.QueueBackend` (and any warm re-run
forever after) picks them up.  Start as many workers against one store
file as you have cores — or let ``python -m repro.runtime.supervisor``
start them for you — the lease protocol keeps them from stepping on each
other and ``compute_count`` proves no key is ever computed twice.

Per-task budgets travel **in the queue**, not on the worker: the
submitter stamps each row with a ``budget_s`` (typically derived from
the cost model) and whichever worker leases the row enforces it.  The
check is post-hoc — an in-process task cannot be interrupted — so an
overrunning task's (valid) result is still published, with the budget
surfaced in ``result.meta["budget_s"]`` / ``meta["over_budget"]`` and
the overrun counted in the drain stats.  There is deliberately no
``--timeout`` flag to keep in sync across a fleet.

A worker exits once nothing has been claimable for ``--idle-exit``
seconds (pass ``--idle-exit 0`` to exit on the first idle
poll; the default keeps draining long enough for a submitter that is
still enqueueing).  A terminating signal simply kills the process — the
lease on any in-flight task expires and another worker picks it up;
that is the crash-recovery path working as designed.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, List, Optional

from repro.runtime.backends.queue import _bound_store, process_lease
from repro.store import ResultStore, TaskQueue

__all__ = ["main", "drain", "run"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.worker",
        description="Drain the task queue living in a shared result store.")
    parser.add_argument("--store", required=True,
                        help="path to the shared SQLite store file")
    parser.add_argument("--worker-id", default=None,
                        help="queue identity (default: worker-<pid>)")
    parser.add_argument("--lease-s", type=float, default=60.0,
                        help="lease duration in seconds (default: 60)")
    parser.add_argument("--poll-s", type=float, default=0.05,
                        help="sleep between idle polls (default: 0.05)")
    parser.add_argument("--idle-exit", type=float, default=10.0,
                        help="exit after this many seconds with nothing "
                             "claimable (default: 10)")
    return parser


def drain(store: ResultStore, queue: TaskQueue, worker_id: str, *,
          poll_s: float = 0.05, idle_exit: Optional[float] = 10.0) -> dict:
    """The worker loop (importable for in-process tests).

    ``queue`` must be bound to ``store`` (``TaskQueue(store)``), so that
    each result publishes in one transaction with its ``done`` row;
    otherwise ``ValueError`` is raised before the first lease.
    Returns drain statistics: ``computed`` (tasks actually run),
    ``deduped`` (leases completed from an already-stored result),
    ``failed`` (captured algorithm errors), ``overtime`` (tasks that blew
    the ``budget_s`` their queue row carried — their results are
    published anyway: the check is post-hoc, the work is already done,
    and discarding a valid result would permanently fail the key for
    every submitter sharing the queue).
    """
    _bound_store(queue, store)
    stats = dict.fromkeys(("computed", "deduped", "failed", "overtime"), 0)
    idle_since = time.monotonic()
    while True:
        queue.reclaim_expired()
        leased = queue.lease(worker_id)
        if leased is None:
            if (idle_exit is not None
                    and time.monotonic() - idle_since >= idle_exit):
                return stats
            time.sleep(poll_s)
            continue
        outcome, payload, _elapsed = process_lease(queue, leased, worker_id)
        stats[outcome] += 1
        # process_lease is the single budget judge; its meta verdict is
        # the one the submitter will see, so it is the one counted here.
        if outcome == "computed" and payload.meta.get("over_budget"):
            stats["overtime"] += 1
        idle_since = time.monotonic()


def main(argv: Optional[List[str]] = None) -> int:
    return run(_build_parser().parse_args(argv))


def run(args: argparse.Namespace,
        open_queue: Callable[..., TaskQueue] = TaskQueue) -> int:
    """Drain the store named by parsed worker ``args`` and print the
    drain summary.  ``open_queue(store, lease_s=...)`` builds the bound
    queue; the chaos worker passes a fault-injecting one."""
    worker_id = args.worker_id or f"worker-{os.getpid()}"
    store = ResultStore(args.store)
    queue = open_queue(store, lease_s=args.lease_s)
    try:
        stats = drain(store, queue, worker_id, poll_s=args.poll_s,
                      idle_exit=args.idle_exit)
    finally:
        queue.close()
        store.close()
    print(f"{worker_id}: computed={stats['computed']} "
          f"deduped={stats['deduped']} failed={stats['failed']} "
          f"overtime={stats['overtime']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
