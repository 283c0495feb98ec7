"""Distributed execution backend over the store's SQLite task queue.

The queue backend turns a :class:`BatchRunner` into a *submitter* on a
shared work plane: cold tasks are enqueued into the
:class:`~repro.store.task_queue.TaskQueue` living in the runner's result
store file, any number of worker processes (``python -m
repro.runtime.worker --store PATH``) lease and compute them, and the
results flow back to the submitter through the store itself — the same
content-addressed rows that make warm re-runs free.

Dedup is store-mediated three ways: the queue keys rows by
``BatchTask.cache_key()`` (enqueueing a known key is a no-op), a worker
that leases a key whose result already landed in the store completes the
row without computing, and the submitter polls the store rather than a
per-task channel, so N workers on one file never compute a key twice.

The submitter's poll costs the same per task at any batch size.  Its
first poll, and every poll after one that made no progress, is a *full
reconcile*: the queue rows and store entries of every unresolved key,
plus re-enqueueing keys whose rows another submitter cancelled.  Every
other poll reads only the rows whose ``seq`` change stamp moved past the
cursor the previous poll left (:meth:`TaskQueue.changes_since`) and
fetches from the store only the ``done`` keys among them.

By default the submitting process *also* drains the queue (``inline=True``)
— a queue-backed runner with no external workers degrades to serial
execution with queue bookkeeping, and with workers attached it becomes one
more drain loop among them.  ``inline=False`` makes the submitter a pure
coordinator (used by the F4 benchmark to prove external workers carry the
whole load).
"""

from __future__ import annotations

import os
import time
from typing import (TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from repro.runtime.backends.base import ExecutionBackend, run_one
from repro.store.task_queue import LeasedTask, TaskQueue

if TYPE_CHECKING:
    from repro.algorithms.base import AlgorithmResult
    from repro.runtime.runner import BatchRunner, BatchTask
    from repro.store import ResultStore

__all__ = ["QueueBackend", "process_lease"]

#: Stat-dict keys every drain loop (worker CLI, chaos worker) reports —
#: defined next to :func:`process_lease`, whose outcomes they count, so
#: the implementations can never drift.
_WORKER_STATS_KEYS = ("computed", "deduped", "failed", "overtime")


def process_lease(store: "ResultStore", queue: TaskQueue, leased: LeasedTask,
                  worker_id: str) -> Tuple[str, object, float]:
    """Run one leased task and settle its queue row.

    The single implementation of the worker-side protocol — store-dedup
    check, compute, publish-then-complete, fail on captured error —
    shared by the inline drain below and the ``repro.runtime.worker``
    CLI, so exactly-once accounting can never diverge between them.

    Returns ``("deduped", None, 0.0)`` when the store already held the
    result, ``("computed", result, elapsed)`` on success (the result is
    already published), or ``("failed", message, elapsed)`` for a
    captured algorithm error (the row is already marked failed).

    A ``budget_s`` riding on the lease (stamped by the submitter, see
    :meth:`TaskQueue.enqueue`) is enforced here, post-hoc: the budget is
    surfaced in ``result.meta["budget_s"]`` before the result is
    published, with ``meta["over_budget"]`` / ``meta["budget_elapsed_s"]``
    added when the task blew it.  The overrunning result is still
    published and completed — the work is already done, and a failed row
    would permanently break the key for every submitter sharing the
    queue.
    """
    if store.contains(leased.key):
        # Store-mediated dedup: someone already published this key
        # (another worker, or a previous run) — never compute twice.
        queue.complete(leased.key, worker_id, computed=False)
        return ("deduped", None, 0.0)
    task = leased.task
    t0 = time.perf_counter()
    status, payload = run_one(task.algorithm, task.instance,
                              task.kwargs_dict())
    elapsed = time.perf_counter() - t0
    if status == "ok":
        if leased.budget_s is not None:
            payload.meta["budget_s"] = leased.budget_s
            if elapsed > leased.budget_s:
                payload.meta["over_budget"] = True
                payload.meta["budget_elapsed_s"] = elapsed
        store.put(task, payload)
        queue.complete(leased.key, worker_id, computed=True)
        return ("computed", payload, elapsed)
    message, _tb = payload
    queue.fail(leased.key, worker_id, message)
    return ("failed", message, elapsed)


class QueueBackend(ExecutionBackend):
    """Submit cold tasks to the shared SQLite work queue and await results.

    Parameters
    ----------
    runner:
        The owning :class:`BatchRunner`; **must** have a persistent store
        attached by the time :meth:`submit` runs — the store file is both
        the queue's home and the result transport.
    lease_s:
        Lease duration handed to the queue (crash-detection horizon).
    poll_s:
        Sleep between polls when no progress was made.
    inline:
        Whether the submitting process drains the queue too (default).
    stall_timeout_s:
        Raise ``RuntimeError`` when no task completes for this many
        seconds (``None`` waits forever).  A safety net for benchmarks and
        tests: with ``inline=False`` and every external worker dead, the
        submitter would otherwise block indefinitely.
    worker_id:
        Drain-loop identity of the submitting process (defaults to
        ``inline-<pid>``); shows up in queue rows it computes.
    autoscale:
        Close the loop to "as fast as the hardware allows": a positive
        worker count (or ``True`` for the usable-CPU count) makes every
        :meth:`submit` spawn a ``python -m repro.runtime.supervisor``
        subprocess that watches the queue and manages a worker fleet of
        up to that many processes for the duration of the batch — one
        knob replaces starting workers by hand.  ``None`` (the default)
        and ``0`` disable autoscaling.  ``REPRO_AUTOSCALE`` reaches this
        parameter only through :class:`repro.api.SessionConfig`.
    budget_factor / min_budget_s:
        Policy for the per-task ``budget_s`` stamped on enqueued rows.
        With the runner's ``timeout`` set, that value is the budget for
        every task (an explicit latency policy wins).  Otherwise, a
        fitted cost model predicts each task's runtime and the budget is
        ``max(min_budget_s, budget_factor × predicted)`` — generous
        enough that honest variance never trips it, tight enough that a
        pathological task is flagged.  Without either, rows travel
        unbudgeted.  The *raw* prediction is additionally stamped as the
        row's ``predicted_s`` so the supervisor can weight queue depth by
        work, not row count.
    spawn_horizon_s:
        Forwarded to the autoscaling supervisor: spawn one worker per
        this many predicted seconds of queued work (see
        ``SupervisorPolicy``).  ``None`` keeps depth-proportional
        scaling.  Only meaningful with ``autoscale``.
    """

    name = "queue"
    persists_results = True  # the store *is* the result transport

    def __init__(self, runner: "BatchRunner", *, lease_s: float = 60.0,
                 poll_s: float = 0.05, inline: bool = True,
                 stall_timeout_s: Optional[float] = None,
                 worker_id: Optional[str] = None,
                 autoscale: Union[None, bool, int] = None,
                 budget_factor: float = 8.0,
                 min_budget_s: float = 1.0,
                 spawn_horizon_s: Optional[float] = None) -> None:
        super().__init__(runner)
        self.lease_s = float(lease_s)
        self.poll_s = float(poll_s)
        self.inline = bool(inline)
        self.stall_timeout_s = stall_timeout_s
        self.worker_id = worker_id or f"inline-{os.getpid()}"
        self.autoscale = self._resolve_autoscale(autoscale)
        self.budget_factor = float(budget_factor)
        self.min_budget_s = float(min_budget_s)
        if spawn_horizon_s is not None and float(spawn_horizon_s) < 0:
            # Mirror SupervisorPolicy: a typo'd horizon must not silently
            # fall back to one-fork-per-row scaling.  (0 means "disabled",
            # matching the CLI flag's convention.)
            raise ValueError("spawn_horizon_s must be >= 0 (or None)")
        self.spawn_horizon_s = (float(spawn_horizon_s)
                                if spawn_horizon_s else None)

    @staticmethod
    def _resolve_autoscale(autoscale: Union[None, bool, int]) -> int:
        if autoscale is True:
            from repro.runtime.runner import usable_cpus
            return usable_cpus()
        return max(0, int(autoscale or 0))

    def _policy_for(self, task: "BatchTask"
                    ) -> Tuple[Optional[float], Optional[float]]:
        """``(budget_s, predicted_s)`` to stamp on this task's queue row.

        The budget is enforced (post-hoc) by whichever worker leases the
        row; the raw prediction is scaling advice for the supervisor and
        is stamped even when an explicit ``timeout`` decides the budget.
        """
        runner = self.runner
        model = runner.cost_model()
        predicted = model.predict_task(task) if model is not None else None
        predicted = float(predicted) if predicted is not None else None
        if runner.timeout is not None:
            return float(runner.timeout), predicted
        if predicted is None:
            return None, None
        return max(self.min_budget_s, self.budget_factor * predicted), predicted

    def submit(self, tasks: Sequence["BatchTask"]
               ) -> Iterator[Tuple[int, "AlgorithmResult"]]:
        runner = self.runner
        store = runner.store
        if store is None:
            raise RuntimeError(
                "the queue backend needs a persistent store: construct the "
                "runner with store=... (the queue lives in the store file)")
        by_key: Dict[str, List[int]] = {}
        for idx, task in enumerate(tasks):
            by_key.setdefault(task.cache_key(), []).append(idx)
        queue = TaskQueue(store.path, lease_s=self.lease_s)
        unresolved = dict(by_key)  # key -> indices still awaiting a result
        armed: set = set()  # keys *we* queued (ok to cancel on early exit)
        # Budgets travel with the rows: the submitter's policy (explicit
        # timeout, else cost-model prediction) is computed once per key
        # here and enforced by whichever worker leases the row.  The raw
        # predictions ride along as the supervisor's scaling signal.
        policy_by_key: Dict[str, Tuple[Optional[float], Optional[float]]] = {
            key: self._policy_for(tasks[indices[0]])
            for key, indices in by_key.items()}
        supervisor = None
        try:
            armed = set(queue.enqueue(
                [tasks[indices[0]] for indices in by_key.values()],
                budgets=[policy[0] for policy in policy_by_key.values()],
                predictions=[policy[1] for policy in policy_by_key.values()]))
            if self.autoscale > 0:
                from repro.runtime.supervisor import spawn_supervisor
                supervisor = spawn_supervisor(store.path,
                                              max_workers=self.autoscale,
                                              lease_s=self.lease_s,
                                              spawn_horizon_s=self.spawn_horizon_s)
            last_progress = time.monotonic()
            cursor = 0
            reconcile = True  # the first poll, and every poll after an idle one
            while unresolved:
                progressed = False
                queue.reclaim_expired()

                # Which keys to look at.  A full reconcile probes every
                # unresolved key: results published without a queue row
                # changing (a sibling runner's serial batch) and rows
                # cancelled by another submitter leave no change stamp.
                # A busy poll reads only the rows that changed since the
                # last poll.  The cursor is taken before the snapshot, so
                # nothing committed in between is missed.
                if reconcile:
                    cursor = queue.last_seq()
                    snapshot = queue.rows(list(unresolved))
                    probe = list(unresolved)
                else:
                    changed, cursor = queue.changes_since(cursor)
                    snapshot = [row for row in changed
                                if row.key in unresolved]
                    probe = [row.key for row in snapshot
                             if row.status == "done"]

                # Results published in the store — by our own inline drain,
                # by external workers, or by a sibling runner's batch.
                warm = (store.prefetch([tasks[unresolved[key][0]]
                                        for key in probe])
                        if probe else {})
                for key in [k for k in probe if k in warm]:
                    result = runner._finalise(tasks[unresolved[key][0]], "ok",
                                              warm[key])
                    for idx in unresolved.pop(key):
                        yield idx, result
                    progressed = True

                # Keys the queue declared failed (deterministic algorithm
                # error on a worker, or the crash-retry budget ran out) —
                # and 'done' rows whose published result has vanished from
                # the store (eviction, version purge): requeue those, or
                # the batch would wait forever on a row nobody may lease.
                for row in snapshot:
                    if row.key not in unresolved:
                        continue
                    if row.status == "failed":
                        task = tasks[unresolved[row.key][0]]
                        message = row.error or "task failed on a queue worker"
                        sentinel = runner._finalise(task, "error",
                                                    (message, None))
                        for idx in unresolved.pop(row.key):
                            yield idx, sentinel
                        progressed = True
                    elif row.status == "done" and not store.contains(row.key):
                        # Safe to recompute: workers put() before they
                        # complete(), so done + store-miss means the
                        # result is truly gone, not merely in flight.
                        queue.requeue([row.key])
                        armed.add(row.key)
                        progressed = True
                if reconcile and unresolved:
                    # A key with no row at all was cancelled by another
                    # submitter's early exit (rows only ever vanish through
                    # cancel_queued): re-enqueue it — their abandoning the
                    # batch must not strand ours.
                    present = {row.key for row in snapshot}
                    vanished = [key for key in unresolved
                                if key not in present]
                    if vanished:
                        armed.update(queue.enqueue(
                            [tasks[unresolved[key][0]] for key in vanished],
                            budgets=[policy_by_key[key][0] for key in vanished],
                            predictions=[policy_by_key[key][1]
                                         for key in vanished]))
                        progressed = True

                # Drain one task ourselves (possibly someone else's — the
                # queue is shared; computing a sibling batch's task is how
                # N submitters help each other).
                if self.inline and unresolved:
                    leased = queue.lease(self.worker_id)
                    if leased is not None:
                        for pair in self._work_off(queue, leased, unresolved,
                                                   tasks):
                            yield pair
                        progressed = True

                reconcile = not progressed
                if progressed:
                    last_progress = time.monotonic()
                    continue
                if supervisor is not None:
                    # The fleet manager is our only compute when
                    # inline=False: a supervisor that gave up (crash-loop
                    # cap, rc 1) or died must surface, not leave this
                    # loop polling an un-drainable queue forever.
                    rc = supervisor.poll()
                    if rc is not None and rc != 0:
                        raise RuntimeError(
                            f"the autoscaling supervisor exited rc={rc} "
                            f"without draining the queue; "
                            f"{len(unresolved)} key(s) outstanding "
                            f"(see its log on stderr)")
                    if rc == 0 and queue.outstanding() > 0:
                        # It drained and exited — but work re-armed *after*
                        # that (an evicted done-row requeue, a vanished-key
                        # re-enqueue above) still needs a fleet.
                        from repro.runtime.supervisor import spawn_supervisor
                        supervisor = spawn_supervisor(
                            store.path, max_workers=self.autoscale,
                            lease_s=self.lease_s,
                            spawn_horizon_s=self.spawn_horizon_s)
                if (self.stall_timeout_s is not None
                        and time.monotonic() - last_progress > self.stall_timeout_s):
                    raise RuntimeError(
                        f"queue drain stalled for {self.stall_timeout_s:.0f}s "
                        f"with {len(unresolved)} key(s) outstanding — are any "
                        f"workers running against {store.path}?")
                time.sleep(self.poll_s)
        finally:
            # Early exit (consumer break) or stall: unclaimed rows of this
            # batch must not linger for workers to burn cycles on — but
            # only rows *this* submitter armed; a key another submitter
            # enqueued first is their batch's lifeline, not ours to drop.
            leftovers = [key for key in unresolved if key in armed]
            if leftovers:
                queue.cancel_queued(leftovers)
            queue.close()
            if supervisor is not None:
                # The supervisor exits by itself once the queue drains; a
                # batch abandoned early still must not leak the fleet.
                # SIGTERM is handled there: its workers are reaped first.
                supervisor.terminate()
                try:
                    supervisor.wait(timeout=30)
                except Exception:  # pragma: no cover - last resort
                    supervisor.kill()
                    supervisor.wait(timeout=10)  # reap: no zombie child

    # ------------------------------------------------------------------
    # inline drain
    # ------------------------------------------------------------------
    def _work_off(self, queue: TaskQueue, leased: LeasedTask,
                  unresolved: Dict[str, List[int]],
                  tasks: Sequence["BatchTask"]
                  ) -> Iterator[Tuple[int, "AlgorithmResult"]]:
        """Compute one leased task; yield it when it belongs to our batch.

        Mirrors the serial backend (captured errors, post-hoc timeout
        sentinels) so a queue-backed runner without external workers is
        behaviourally a serial runner — with two queue-specific twists:
        the runner's ``timeout`` is *this submitter's* latency policy, so
        it never judges a foreign batch's task, and an overrunning task's
        (valid) result is still published before the local sentinel is
        yielded — discarding it would permanently fail the key for every
        submitter sharing the queue, and a warm store hit costs no
        latency, so serving it later cannot violate anyone's budget.
        """
        runner = self.runner
        ours = leased.key in unresolved
        outcome, payload, elapsed = process_lease(runner.store, queue, leased,
                                                  self.worker_id)
        if not ours or outcome == "deduped":
            return  # a dedup hit of ours is served by the next store poll
        task = tasks[unresolved[leased.key][0]]
        if (outcome == "computed" and runner.timeout is not None
                and elapsed > runner.timeout):
            runner.stats["timeouts"] += 1
            result = runner._sentinel(task, timeout=True)
        elif outcome == "computed":
            result = runner._finalise(task, "ok", payload)
        else:  # "failed": the captured error message travelled back
            result = runner._finalise(task, "error", (payload, None))
        for idx in unresolved.pop(leased.key):
            yield idx, result
