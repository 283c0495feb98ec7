"""Worker supervisor: autoscale a fleet of queue workers over one store.

::

    python -m repro.runtime.supervisor --store PATH [--max-workers N]
        [--lease-s S] [--poll-s S] [--idle-grace-s S]
        [--restart-backoff-s S] [--restart-cap N]
        [--worker-module M] [--worker-args "ARGS"]

PR 3 left the distributed queue needing hand-started workers; the
supervisor closes that loop.  It watches the ``task_queue`` table's
depth and lease traffic and manages a fleet of ``python -m
repro.runtime.worker`` subprocesses:

* **spawn on depth** — one worker per outstanding task, capped at
  ``--max-workers``;
* **restart on crash** — a worker that exits nonzero is replaced, behind
  an exponential backoff, up to a *consecutive-crash* cap (a crash loop
  must not fork-bomb the host; a clean exit resets the counter);
* **retire on idle** — once the queue has been empty for an idle grace
  period, remaining workers are retired and the supervisor exits.

The design splits **policy** from **mechanism**: every scaling and
restart decision lives in :class:`SupervisorPolicy`, a pure object whose
only dependency is an injectable clock — unit-testable with a
:class:`~repro.testing.clock.FakeClock` and stubbed queue counts, zero
subprocesses, zero sleeps.  :class:`Supervisor` is the mechanism: it
reads queue counts, reaps child processes, and executes whatever the
policy decided.  Crash *detection* needs no supervisor cooperation — an
abandoned lease expires and is reclaimed by the queue protocol
regardless — the supervisor only restores fleet capacity.

Submitters normally do not run this by hand:
``BatchRunner(backend="queue", backend_options={"autoscale": N})`` — or
``Session(backend="queue", autoscale=N)`` / ``REPRO_AUTOSCALE=N`` —
spawns a supervisor around every batch (see :func:`spawn_supervisor`).
"""

from __future__ import annotations

import argparse
import logging
import os
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.store.task_queue import TaskQueue

__all__ = ["SupervisorPolicy", "Supervisor", "spawn_supervisor", "main"]

logger = logging.getLogger("repro.supervisor")

#: Crash-restart backoff: doubles per consecutive crash, capped at 30 s.
_BACKOFF_FACTOR = 2.0
_MAX_BACKOFF_S = 30.0


class SupervisorPolicy:
    """Pure scaling/restart decisions — no subprocesses, no sleeps.

    Parameters
    ----------
    max_workers:
        Fleet-size ceiling.
    idle_grace_s:
        How long the queue must stay empty before idle workers are
        retired (and, with nothing left to reap, the supervisor exits).
        The hysteresis that keeps a bursty submitter from flapping the
        fleet.
    restart_backoff_s:
        After the *k*-th consecutive crash, spawning is suspended for
        ``min(30, restart_backoff_s · 2^(k-1))`` seconds.
    restart_cap:
        Consecutive crashes after which the policy stops restarting
        entirely (:attr:`exhausted`) — a worker that dies every time it
        starts will keep dying; forking it forever helps nobody.  A clean
        (rc 0) exit proves the fleet can make progress and resets the
        counter.
    clock:
        Time source (``time.monotonic`` unless overridden); tests inject
        a :class:`~repro.testing.clock.FakeClock`.
    """

    def __init__(self, *, max_workers: int, idle_grace_s: float = 1.0,
                 restart_backoff_s: float = 0.5, restart_cap: int = 5,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if restart_cap < 1:
            raise ValueError("restart_cap must be >= 1")
        self.max_workers = int(max_workers)
        self.idle_grace_s = float(idle_grace_s)
        self.restart_backoff_s = float(restart_backoff_s)
        self.restart_cap = int(restart_cap)
        self._clock = clock
        #: Consecutive crashes since the fleet last proved it can make
        #: progress (a clean worker exit, or any task completing).
        self.crashes = 0
        self.total_crashes = 0
        self._backoff_until = float("-inf")
        self._idle_since: Optional[float] = None
        self._last_done: Optional[int] = None

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def scale(self, *, queued: int, leased: int, live: int) -> int:
        """The worker-count delta for this tick.

        Positive: spawn that many workers (depth demands them, crash
        budget and backoff permitting).  Negative: retire that many (the
        queue has been idle past the grace period).  Zero: hold — which
        includes the case of more live workers than outstanding tasks
        while work remains: busy workers are never culled mid-task, they
        retire themselves (or idle out) when the queue empties.
        """
        now = self._clock()
        outstanding = queued + leased
        if outstanding > 0:
            self._idle_since = None
            desired = min(self.max_workers, outstanding)
            if live >= desired or self.exhausted or now < self._backoff_until:
                return 0
            return desired - live
        if live == 0:
            return 0
        if self._idle_since is None:
            self._idle_since = now
            return 0
        if now - self._idle_since >= self.idle_grace_s:
            return -live
        return 0

    def record_exit(self, returncode: int) -> str:
        """Classify a reaped worker exit: ``"retired"`` or ``"crashed"``.

        A clean exit (rc 0 — the worker drained and idled out) resets the
        consecutive-crash counter; a nonzero exit arms the exponential
        restart backoff.
        """
        if returncode == 0:
            self.crashes = 0
            return "retired"
        self.crashes += 1
        self.total_crashes += 1
        delay = min(_MAX_BACKOFF_S,
                    self.restart_backoff_s
                    * _BACKOFF_FACTOR ** (self.crashes - 1))
        self._backoff_until = self._clock() + delay
        return "crashed"

    def note_progress(self, done: int) -> None:
        """Feed the queue's ``done`` count; completions clear crash state.

        The restart cap exists for workers that die *without completing
        anything* — a fleet that crashes every N tasks but keeps finishing
        work is unhealthy, not hopeless, and must not be abandoned (nor
        punished with an ever-growing backoff).  Any increase in ``done``
        since the last observation resets the consecutive-crash counter
        and disarms the backoff.
        """
        if self._last_done is not None and done > self._last_done:
            self.crashes = 0
            self._backoff_until = float("-inf")
        if self._last_done is None or done > self._last_done:
            self._last_done = done

    @property
    def exhausted(self) -> bool:
        """Whether the consecutive-crash cap has been hit (stop restarting)."""
        return self.crashes >= self.restart_cap

    @property
    def backoff_remaining(self) -> float:
        """Seconds until spawning is allowed again (0 when unblocked)."""
        return max(0.0, self._backoff_until - self._clock())


class Supervisor:
    """Process manager executing a :class:`SupervisorPolicy` over a store.

    Parameters
    ----------
    store_path:
        The shared SQLite store/queue file workers drain.
    max_workers:
        Fleet ceiling (forwarded to the default policy).
    policy:
        A ready :class:`SupervisorPolicy`; overrides ``max_workers`` /
        ``idle_grace_s`` / ``restart_backoff_s`` / ``restart_cap``.
    lease_s:
        Lease duration, both for this process's reclaim sweeps and for
        the spawned workers (kept identical so expiry judgements agree).
    poll_s:
        Supervisor tick interval.
    worker_module:
        The ``python -m`` module spawned as a worker
        (``repro.runtime.worker``; tests substitute
        ``repro.testing.chaos``).
    worker_args:
        Extra CLI args appended to every worker command line.
    worker_idle_exit / worker_poll_s:
        Forwarded to workers; ``worker_idle_exit`` should exceed
        ``idle_grace_s`` so the supervisor, not the worker, decides
        retirement (either way is safe — a self-exited worker is reaped
        as retired).
    sleep:
        Injectable sleep for the tick loop (tests pass a fake).

    :meth:`run` blocks until the queue drains (or the crash cap trips)
    and returns a summary dict; ``events`` keeps the human-readable log
    lines for in-process callers (the F5 experiment asserts on them).
    """

    def __init__(self, store_path: Union[str, Path], *,
                 max_workers: Optional[int] = None,
                 policy: Optional[SupervisorPolicy] = None,
                 lease_s: float = 60.0, poll_s: float = 0.2,
                 idle_grace_s: float = 1.0, restart_backoff_s: float = 0.5,
                 restart_cap: int = 5,
                 worker_module: str = "repro.runtime.worker",
                 worker_args: Sequence[str] = (),
                 worker_idle_exit: float = 10.0,
                 worker_poll_s: float = 0.05,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.store_path = Path(store_path)
        if policy is None:
            if max_workers is None:
                from repro.runtime.runner import usable_cpus
                max_workers = usable_cpus()
            policy = SupervisorPolicy(max_workers=max_workers,
                                      idle_grace_s=idle_grace_s,
                                      restart_backoff_s=restart_backoff_s,
                                      restart_cap=restart_cap)
        self.policy = policy
        self.lease_s = float(lease_s)
        self.poll_s = float(poll_s)
        self.worker_module = worker_module
        self.worker_args = list(worker_args)
        self.worker_idle_exit = float(worker_idle_exit)
        self.worker_poll_s = float(worker_poll_s)
        self._sleep = sleep
        self.events: List[str] = []
        self.summary: Dict[str, object] = {
            "spawned": 0, "crashed": 0, "restarts": 0, "retired": 0,
            "drained": False}

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def run(self) -> Dict[str, object]:
        """Supervise until the queue drains; return the summary dict."""
        queue = TaskQueue(self.store_path, lease_s=self.lease_s)
        workers: Dict[str, subprocess.Popen] = {}
        retiring: set = set()
        pending_restarts = 0
        seq = 0
        try:
            while True:
                queue.reclaim_expired()
                # Reap exits first, so counts below see the true fleet.
                for wid in list(workers):
                    rc = workers[wid].poll()
                    if rc is None:
                        continue
                    workers.pop(wid)
                    if wid in retiring or rc == 0:
                        retiring.discard(wid)
                        self.policy.record_exit(0)
                        self.summary["retired"] += 1  # type: ignore[operator]
                        self._event(f"retired idle worker {wid} (rc={rc})")
                    else:
                        self.policy.record_exit(rc)
                        self.summary["crashed"] += 1  # type: ignore[operator]
                        pending_restarts += 1
                        self._event(
                            f"worker {wid} crashed (rc={rc}); "
                            f"{self.policy.crashes} consecutive crash(es), "
                            f"backoff {self.policy.backoff_remaining:.2f}s")
                counts = queue.counts()
                outstanding = counts["queued"] + counts["leased"]
                self.policy.note_progress(counts["done"])
                if outstanding == 0 and not workers:
                    self.summary["drained"] = True
                    self._event("queue drained; supervisor exiting")
                    return dict(self.summary)
                if self.policy.exhausted and counts["leased"] == 0:
                    # The cap only trips when crashes pile up with zero
                    # completions in between.  A live *unexpired* lease is
                    # the one honest signal a surviving worker is still
                    # working (its first long task produces no 'done'
                    # movement until it finishes), so give up only once no
                    # lease is held: a wedged worker's lease expires and is
                    # reclaimed above, after which waiting on a fleet that
                    # cannot move would hang the CLI forever (the finally
                    # below reaps whatever is still alive).
                    self._event(
                        f"restart cap hit ({self.policy.crashes} "
                        f"consecutive crashes, no progress, no live lease); "
                        f"giving up with {outstanding} task(s) outstanding "
                        f"and {len(workers)} worker(s) still live")
                    return dict(self.summary)
                delta = self.policy.scale(queued=counts["queued"],
                                          leased=counts["leased"],
                                          live=len(workers))
                if delta > 0:
                    for _ in range(delta):
                        seq += 1
                        wid = f"sup-{os.getpid()}-{seq}"
                        workers[wid] = self._spawn_worker(wid)
                        self.summary["spawned"] += 1  # type: ignore[operator]
                        if pending_restarts > 0:
                            pending_restarts -= 1
                            self.summary["restarts"] += 1  # type: ignore[operator]
                            self._event(f"spawned worker {wid} "
                                        f"(restart after crash)")
                        else:
                            self._event(f"spawned worker {wid} "
                                        f"(queue depth {outstanding})")
                elif delta < 0:
                    # Safe: the policy only retires when outstanding == 0,
                    # so no worker can be holding a lease we would strand.
                    for wid in list(workers)[:(-delta)]:
                        if wid in retiring:
                            continue
                        retiring.add(wid)
                        workers[wid].terminate()
                        self._event(f"retiring idle worker {wid}")
                self._sleep(self.poll_s)
        finally:
            for proc in workers.values():
                proc.terminate()
            for proc in workers.values():
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    proc.kill()
                    proc.wait(timeout=10)
            queue.close()

    # ------------------------------------------------------------------
    # mechanism
    # ------------------------------------------------------------------
    def _event(self, message: str) -> None:
        self.events.append(message)
        logger.info(message)

    def _spawn_worker(self, worker_id: str) -> subprocess.Popen:
        cmd = [sys.executable, "-m", self.worker_module,
               "--store", str(self.store_path), "--worker-id", worker_id,
               "--lease-s", str(self.lease_s),
               "--poll-s", str(self.worker_poll_s),
               "--idle-exit", str(self.worker_idle_exit),
               *self.worker_args]
        # Workers print a one-line drain summary on exit; that belongs to
        # them, not to the supervisor's (or the F5 table's) stdout.
        return subprocess.Popen(cmd, env=child_env(),
                                stdout=subprocess.DEVNULL)


def child_env() -> Dict[str, str]:
    """An environment in which ``python -m repro...`` is importable.

    The supervisor (and the autoscaling submitter) spawn children with
    ``sys.executable -m``; a checkout driven via ``PYTHONPATH=src`` must
    propagate that root even when the variable was never exported.
    """
    env = dict(os.environ)
    import repro

    pkg_root = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH", "")
    if pkg_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (pkg_root + os.pathsep + existing if existing
                             else pkg_root)
    return env


def spawn_supervisor(store_path: Union[str, Path], *, max_workers: int,
                     lease_s: float = 60.0) -> subprocess.Popen:
    """Start ``python -m repro.runtime.supervisor`` as a subprocess.

    The submitter-facing entry point behind
    ``QueueBackend(autoscale=N)``: the supervisor
    exits on its own once the queue drains; callers terminate it early
    only to abandon a batch (SIGTERM is handled — workers are reaped
    before it dies).
    """
    cmd = [sys.executable, "-m", "repro.runtime.supervisor",
           "--store", str(store_path), "--max-workers", str(max_workers),
           "--lease-s", str(lease_s)]
    return subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.supervisor",
        description="Autoscale queue workers over a shared result store.")
    parser.add_argument("--store", required=True,
                        help="path to the shared SQLite store file")
    parser.add_argument("--max-workers", type=int, default=None,
                        help="fleet-size ceiling (default: usable CPUs)")
    parser.add_argument("--lease-s", type=float, default=60.0,
                        help="lease duration, supervisor and workers "
                             "(default: 60)")
    parser.add_argument("--poll-s", type=float, default=0.2,
                        help="supervisor tick interval (default: 0.2)")
    parser.add_argument("--idle-grace-s", type=float, default=1.0,
                        help="empty-queue time before retiring the fleet "
                             "and exiting (default: 1)")
    parser.add_argument("--restart-backoff-s", type=float, default=0.5,
                        help="base crash-restart backoff (default: 0.5, "
                             "doubles per consecutive crash)")
    parser.add_argument("--restart-cap", type=int, default=5,
                        help="consecutive crashes before giving up "
                             "(default: 5)")
    parser.add_argument("--worker-module", default="repro.runtime.worker",
                        help="python -m module to spawn as workers")
    parser.add_argument("--worker-args", default="", metavar="ARGS",
                        help="extra arguments appended to every worker "
                             "command line, as one shell-quoted string "
                             "(e.g. --worker-args '--crash-after 5'; "
                             "argparse cannot accept flag-shaped values "
                             "for a repeatable option)")
    parser.add_argument("--worker-idle-exit", type=float, default=10.0,
                        help="idle-exit forwarded to workers (default: 10)")
    parser.add_argument("--worker-poll-s", type=float, default=0.05,
                        help="poll interval forwarded to workers "
                             "(default: 0.05)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(asctime)s %(name)s: %(message)s")
    # SIGTERM (an abandoning submitter, an orchestrator teardown) must run
    # the cleanup path — Python's default handler would orphan the fleet.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    supervisor = Supervisor(
        args.store, max_workers=args.max_workers, lease_s=args.lease_s,
        poll_s=args.poll_s, idle_grace_s=args.idle_grace_s,
        restart_backoff_s=args.restart_backoff_s,
        restart_cap=args.restart_cap,
        worker_module=args.worker_module,
        worker_args=shlex.split(args.worker_args),
        worker_idle_exit=args.worker_idle_exit,
        worker_poll_s=args.worker_poll_s)
    summary = supervisor.run()
    print(f"supervisor: spawned={summary['spawned']} "
          f"crashed={summary['crashed']} restarts={summary['restarts']} "
          f"retired={summary['retired']} drained={summary['drained']}")
    return 0 if summary["drained"] else 1


if __name__ == "__main__":
    sys.exit(main())
