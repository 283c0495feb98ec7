"""Chaos worker: a queue drain loop that injects faults on schedule.

::

    python -m repro.testing.chaos --store PATH [--worker-id ID]
        [--crash-after N] [--crash-mid-task | --crash-in-publish]
        [--crash-exit-code C]
        [--stall-s S] [--slow-s S] [--refuse-leases N]
        [--lease-s S] [--poll-s S] [--idle-exit S] [--max-tasks N]

A drop-in replacement for ``python -m repro.runtime.worker`` that behaves
exactly like a healthy worker *until its* :class:`ChaosPlan` *says
otherwise*.  Because the faults fire on deterministic counters (leases
processed, polls seen) rather than timers or randomness, a test that
arms, say, ``--crash-after 3`` knows precisely which lease the crash
lands on — the fault schedule is part of the test's arrange step, not a
flakiness source.

Fault repertoire
----------------

``crash_after=N``
    ``os._exit`` with ``crash_exit_code`` after *completing* N leases —
    the worker dies **between** tasks, holding no lease.  This is the
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
``slow_s=S``
    Sleep S before *every* compute — a uniformly slow machine, for
    budget-enforcement tests.
``refuse_leases=N``
    Spend the first N polls idling without leasing — a worker that joins
    the fleet but initially contributes nothing (supervisor scaling must
    not count on instant uptake).

Flags override the corresponding ``REPRO_CHAOS_*`` environment variables
(see :meth:`ChaosPlan.from_env`), which is how a supervisor-spawned fleet
is armed: the supervisor passes only the standard worker flags, the
chaos schedule rides in the environment.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional

from repro.runtime.backends.queue import (_WORKER_STATS_KEYS, _bound_store,
                                          process_lease)
from repro.store import ResultStore, TaskQueue

__all__ = ["ChaosPlan", "chaos_drain", "main"]


@dataclass(frozen=True)
class ChaosPlan:
    """A deterministic fault schedule for one chaos-worker incarnation."""

    crash_after: Optional[int] = None
    crash_mid_task: bool = False
    crash_in_publish: bool = False
    crash_exit_code: int = 9
    stall_s: float = 0.0
    slow_s: float = 0.0
    refuse_leases: int = 0

    def __post_init__(self) -> None:
        if self.crash_mid_task and self.crash_in_publish:
            raise ValueError("crash_mid_task and crash_in_publish are two "
                             "places to die; arm one of them")

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None) -> "ChaosPlan":
        """Read the fault schedule from ``REPRO_CHAOS_*`` variables.

        ``REPRO_CHAOS_CRASH_AFTER`` (int), ``REPRO_CHAOS_MID_TASK`` and
        ``REPRO_CHAOS_IN_PUBLISH`` (truthy: ``1``/``true``/``yes``),
        ``REPRO_CHAOS_EXIT_CODE``
        (int, default 9), ``REPRO_CHAOS_STALL_S`` / ``REPRO_CHAOS_SLOW_S``
        (float seconds), ``REPRO_CHAOS_REFUSE_LEASES`` (int).  Unset
        variables leave the healthy default in place.
        """
        env = os.environ if env is None else env

        def _get(name: str, cast, default):
            raw = env.get(name, "").strip()
            return cast(raw) if raw else default

        return cls(
            crash_after=_get("REPRO_CHAOS_CRASH_AFTER", int, None),
            crash_mid_task=_get("REPRO_CHAOS_MID_TASK", _truthy, False),
            crash_in_publish=_get("REPRO_CHAOS_IN_PUBLISH", _truthy, False),
            crash_exit_code=_get("REPRO_CHAOS_EXIT_CODE", int, 9),
            stall_s=_get("REPRO_CHAOS_STALL_S", float, 0.0),
            slow_s=_get("REPRO_CHAOS_SLOW_S", float, 0.0),
            refuse_leases=_get("REPRO_CHAOS_REFUSE_LEASES", int, 0),
        )

    def merged_with_args(self, args: argparse.Namespace) -> "ChaosPlan":
        """Overlay CLI flags (which win) on this (env-derived) plan."""
        return ChaosPlan(
            crash_after=(args.crash_after if args.crash_after is not None
                         else self.crash_after),
            crash_mid_task=bool(args.crash_mid_task or self.crash_mid_task),
            crash_in_publish=bool(args.crash_in_publish
                                  or self.crash_in_publish),
            crash_exit_code=(args.crash_exit_code
                             if args.crash_exit_code is not None
                             else self.crash_exit_code),
            stall_s=args.stall_s if args.stall_s is not None else self.stall_s,
            slow_s=args.slow_s if args.slow_s is not None else self.slow_s,
            refuse_leases=(args.refuse_leases if args.refuse_leases is not None
                           else self.refuse_leases),
        )


def _truthy(raw: str) -> bool:
    return raw.lower() in ("1", "true", "yes")


def _die_inside_publish(store: ResultStore, exit_code: int) -> None:
    """Make ``store``'s next :meth:`~ResultStore.put` kill the process
    right after its INSERT — inside the publish transaction, before the
    COMMIT that would also mark the queue row ``done``."""
    put = store.put

    def put_then_die(*args, **kwargs):
        put(*args, **kwargs)
        os._exit(exit_code)

    store.put = put_then_die  # type: ignore[method-assign]


def chaos_drain(store: ResultStore, queue: TaskQueue, worker_id: str,
                plan: ChaosPlan, *, poll_s: float = 0.05,
                idle_exit: Optional[float] = 10.0,
                max_tasks: Optional[int] = None,
                sleep: Callable[[float], None] = time.sleep) -> dict:
    """The worker drain loop with ``plan``'s faults injected.

    Semantically identical to :func:`repro.runtime.worker.drain` (same
    :func:`~repro.runtime.backends.queue.process_lease` core, same budget
    enforcement, same stats dict) until a fault fires.  Crashes leave the
    process via ``os._exit`` — no cleanup, no flushed buffers — because
    that is exactly what the lease protocol claims to survive.

    ``sleep`` is injectable so plan *mechanics* (stalls, refusals) can be
    unit-tested against a :class:`~repro.testing.clock.FakeClock` without
    real subprocesses or wall-clock waits.
    """
    _bound_store(queue, store)
    stats = dict.fromkeys(_WORKER_STATS_KEYS, 0)
    processed = 0
    refusals_left = max(0, plan.refuse_leases)
    stalled = False
    idle_for = 0.0
    while True:
        queue.reclaim_expired()
        if refusals_left > 0:
            refusals_left -= 1
            sleep(poll_s)
            continue
        leased = queue.lease(worker_id)
        if leased is None:
            if idle_exit is not None and idle_for >= idle_exit:
                return stats
            sleep(poll_s)
            idle_for += poll_s
            continue
        idle_for = 0.0
        if (plan.crash_after is not None and plan.crash_mid_task
                and processed >= plan.crash_after):
            # Die holding the lease — the OOM-kill shape.  The row stays
            # 'leased' until expiry; reclaim must exclude this worker.
            os._exit(plan.crash_exit_code)
        if (plan.crash_after is not None and plan.crash_in_publish
                and processed >= plan.crash_after):
            _die_inside_publish(store, plan.crash_exit_code)
        if plan.stall_s > 0 and not stalled:
            stalled = True
            sleep(plan.stall_s)
        if plan.slow_s > 0:
            sleep(plan.slow_s)
        outcome, payload, _elapsed = process_lease(queue, leased, worker_id)
        stats[outcome] += 1
        if outcome == "computed" and payload.meta.get("over_budget"):
            stats["overtime"] += 1
        processed += 1
        if (plan.crash_after is not None and not plan.crash_mid_task
                and not plan.crash_in_publish
                and processed >= plan.crash_after):
            # Die *between* tasks: no lease held, exactly-once unharmed —
            # pure restart pressure for the supervisor.
            os._exit(plan.crash_exit_code)
        if max_tasks is not None and processed >= max_tasks:
            return stats


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.chaos",
        description="A queue worker that injects faults on a deterministic "
                    "schedule (testing only).")
    parser.add_argument("--store", required=True,
                        help="path to the shared SQLite store file")
    parser.add_argument("--worker-id", default=None,
                        help="queue identity (default: chaos-<pid>)")
    parser.add_argument("--lease-s", type=float, default=60.0,
                        help="lease duration in seconds (default: 60)")
    parser.add_argument("--poll-s", type=float, default=0.05,
                        help="sleep between idle polls (default: 0.05)")
    parser.add_argument("--idle-exit", type=float, default=10.0,
                        help="exit after this long with nothing claimable")
    parser.add_argument("--max-tasks", type=int, default=None,
                        help="exit after processing this many leases")
    parser.add_argument("--crash-after", type=int, default=None,
                        help="os._exit after completing N leases")
    parser.add_argument("--crash-mid-task", action="store_true",
                        help="crash holding the (N+1)-th lease instead of "
                             "between tasks")
    parser.add_argument("--crash-in-publish", action="store_true",
                        help="crash inside the (N+1)-th lease's publish "
                             "transaction, after the result INSERT and "
                             "before COMMIT")
    parser.add_argument("--crash-exit-code", type=int, default=None,
                        help="exit code of the injected crash (default: 9)")
    parser.add_argument("--stall-s", type=float, default=None,
                        help="hold the first lease this long before computing")
    parser.add_argument("--slow-s", type=float, default=None,
                        help="sleep this long before every compute")
    parser.add_argument("--refuse-leases", type=int, default=None,
                        help="idle through the first N polls without leasing")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    plan = ChaosPlan.from_env().merged_with_args(args)
    worker_id = args.worker_id or f"chaos-{os.getpid()}"
    store = ResultStore(args.store)
    queue = TaskQueue(store, lease_s=args.lease_s)
    try:
        stats = chaos_drain(store, queue, worker_id, plan,
                            poll_s=args.poll_s, idle_exit=args.idle_exit,
                            max_tasks=args.max_tasks)
    finally:
        queue.close()
        store.close()
    print(f"{worker_id}: computed={stats['computed']} "
          f"deduped={stats['deduped']} failed={stats['failed']} "
          f"overtime={stats['overtime']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
