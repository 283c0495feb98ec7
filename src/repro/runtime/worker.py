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

A worker has no time limit: it publishes each result as the algorithm
returned it, whatever ``timeout`` the task's submitter runs with.  A
submitter's ``timeout`` judges only the tasks its own inline drain
computes, as the serial backend's does.

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

from repro.runtime.backends.queue import process_lease
from repro.store import TaskQueue
from repro.store.checks import check_timeout

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


def drain(queue: TaskQueue, worker_id: str, *,
          poll_s: float = 0.05, idle_exit: Optional[float] = 10.0) -> dict:
    """The worker loop (importable for in-process tests).

    Each result publishes through ``queue``'s store, in one transaction
    with its ``done`` row.  Returns drain statistics: ``computed`` (tasks
    actually run), ``deduped`` (leases completed from an already-stored
    result), ``failed`` (captured algorithm errors).
    """
    stats = dict.fromkeys(("computed", "deduped", "failed"), 0)
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
        outcome, _payload, _elapsed = process_lease(queue, leased, worker_id)
        stats[outcome] += 1
        idle_since = time.monotonic()


def main(argv: Optional[List[str]] = None) -> int:
    return run(_build_parser().parse_args(argv))


def run(args: argparse.Namespace,
        open_queue: Callable[..., TaskQueue] = TaskQueue) -> int:
    """Drain the store named by parsed worker ``args`` and print the
    drain summary.  ``open_queue(path, lease_s=...)`` opens the queue;
    the chaos worker passes a fault-injecting one.  A bad duration
    flag raises ``ValueError`` naming it before anything is leased."""
    check_timeout(args.poll_s, "--poll-s", none_ok=False)
    check_timeout(args.idle_exit, "--idle-exit", none_ok=False, zero_ok=True)
    worker_id = args.worker_id or f"worker-{os.getpid()}"
    with open_queue(args.store, lease_s=args.lease_s) as queue:
        stats = drain(queue, worker_id, poll_s=args.poll_s,
                      idle_exit=args.idle_exit)
    print(f"{worker_id}: computed={stats['computed']} "
          f"deduped={stats['deduped']} failed={stats['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
