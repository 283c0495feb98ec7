"""Chaos worker: the queue worker with faults injected on schedule.

::

    python -m repro.testing.chaos --store PATH [--worker-id ID]
        [--crash-after N] [--crash-mid-task | --crash-in-publish]
        [--stall-s S] [--lease-s S] [--poll-s S] [--idle-exit S]

A drop-in replacement for ``python -m repro.runtime.worker``: the same
parser, the same :func:`repro.runtime.worker.drain` loop, run over a
:class:`ChaosQueue` whose ``lease`` / ``complete`` / ``fail`` fire the
:class:`ChaosPlan`'s faults.  Until a fault fires it *is* a healthy
worker.  Because the faults fire on deterministic counters (leases
settled) rather than timers or randomness, a test that arms, say,
``--crash-after 3`` knows precisely which lease the crash lands on — the
fault schedule is part of the test's arrange step, not a flakiness
source.

Fault repertoire
----------------

Every crash is ``os._exit(9)``: no cleanup, no flushed buffers, because
that is exactly what the lease protocol claims to survive.

``crash_after=N``
    Die after *settling* (completing or failing) N leases — the worker
    dies **between** tasks, holding no lease.  This is the
    restart-pressure fault: it exercises the supervisor's crash-restart
    path without ever putting exactly-once compute at risk.
``crash_mid_task`` (modifies ``crash_after``)
    Die right **after leasing** the (N+1)-th task, before computing it —
    the OOM-kill shape.  The abandoned lease must expire, be reclaimed
    with this worker excluded, and land on someone else's desk.
``crash_in_publish`` (modifies ``crash_after``)
    Die **inside the publish transaction** of the (N+1)-th task: after
    its ``results`` INSERT, before the COMMIT that would also mark the
    row ``done``.  Neither write may survive — the key has no stored
    result, its row is still ``leased``, and after expiry the next
    worker computes it exactly once.
``stall_s=S``
    Hold the first lease for S seconds before computing (a worker that
    leased and then hung).  With ``stall_s > lease_s`` the lease expires
    under a live-but-stuck worker.

A supervisor arms a chaos fleet by passing these flags through
``--worker-args``.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from repro.runtime import worker
from repro.store import LeasedTask, ResultStore, TaskQueue
from repro.store.checks import check_timeout

__all__ = ["ChaosPlan", "ChaosQueue", "main"]

#: Exit status of every injected crash.
_CRASH_EXIT_CODE = 9


@dataclass(frozen=True)
class ChaosPlan:
    """A deterministic fault schedule for one chaos-worker incarnation."""

    crash_after: Optional[int] = None
    crash_mid_task: bool = False
    crash_in_publish: bool = False
    stall_s: float = 0.0

    def __post_init__(self) -> None:
        check_timeout(self.stall_s, "stall_s", none_ok=False, zero_ok=True)
        if self.crash_mid_task and self.crash_in_publish:
            raise ValueError("crash_mid_task and crash_in_publish are two "
                             "places to die; arm one of them")


class ChaosQueue(TaskQueue):
    """A queue that fires ``plan``'s faults as the drain loop leases and
    settles rows."""

    def __init__(self, path: Union[str, Path, ResultStore], *,
                 plan: ChaosPlan, **kwargs: object) -> None:
        super().__init__(path, **kwargs)
        self.plan = plan
        self._settled = 0
        self._stalled = False

    def _crash_due(self) -> bool:
        return (self.plan.crash_after is not None
                and self._settled >= self.plan.crash_after)

    def lease(self, worker_id: str) -> Optional[LeasedTask]:
        leased = super().lease(worker_id)
        if leased is None:
            return None
        if self.plan.crash_mid_task and self._crash_due():
            # Die holding the lease — the OOM-kill shape.  The row stays
            # 'leased' until expiry; reclaim must exclude this worker.
            os._exit(_CRASH_EXIT_CODE)
        if self.plan.stall_s > 0 and not self._stalled:
            self._stalled = True
            time.sleep(self.plan.stall_s)
        return leased

    def complete(self, key: str, worker_id: str, *, computed: bool,
                 publish: object = None) -> None:
        if (publish is not None and self.plan.crash_in_publish
                and self._crash_due()):
            self._die_inside_publish()
        super().complete(key, worker_id, computed=computed, publish=publish)
        self._note_settled()

    def fail(self, key: str, worker_id: str, error: str) -> None:
        super().fail(key, worker_id, error)
        self._note_settled()

    def _note_settled(self) -> None:
        self._settled += 1
        if (self._crash_due() and not self.plan.crash_mid_task
                and not self.plan.crash_in_publish):
            # Die *between* tasks: no lease held, exactly-once unharmed —
            # pure restart pressure for the supervisor.
            os._exit(_CRASH_EXIT_CODE)

    def _die_inside_publish(self) -> None:
        """Make the store's next :meth:`~ResultStore.put` kill the process
        right after its INSERT — inside the publish transaction, before
        the COMMIT that would also mark the queue row ``done``."""
        put = self.store.put

        def put_then_die(*args, **kwargs):
            put(*args, **kwargs)
            os._exit(_CRASH_EXIT_CODE)

        self.store.put = put_then_die  # type: ignore[method-assign]


def main(argv: Optional[List[str]] = None) -> int:
    parser = worker._build_parser()
    parser.prog = "python -m repro.testing.chaos"
    parser.description = ("A queue worker that injects faults on a "
                          "deterministic schedule (testing only).")
    parser.add_argument("--crash-after", type=int, default=None,
                        help="crash after settling N leases")
    parser.add_argument("--crash-mid-task", action="store_true",
                        help="crash holding the (N+1)-th lease instead of "
                             "between tasks")
    parser.add_argument("--crash-in-publish", action="store_true",
                        help="crash inside the (N+1)-th lease's publish "
                             "transaction, after the result INSERT and "
                             "before COMMIT")
    parser.add_argument("--stall-s", type=float, default=0.0,
                        help="hold the first lease this long before computing")
    args = parser.parse_args(argv)
    plan = ChaosPlan(crash_after=args.crash_after,
                     crash_mid_task=args.crash_mid_task,
                     crash_in_publish=args.crash_in_publish,
                     stall_s=args.stall_s)
    return worker.run(args, functools.partial(ChaosQueue, plan=plan))


if __name__ == "__main__":
    sys.exit(main())
