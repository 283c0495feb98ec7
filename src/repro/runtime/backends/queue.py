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

from repro.runtime.backends.base import ExecutionBackend, Outcome, run_one
from repro.store.checks import check_count, check_timeout
from repro.store.task_queue import LeasedTask, TaskQueue

if TYPE_CHECKING:
    from repro.runtime.runner import BatchRunner, BatchTask

__all__ = ["QueueBackend", "process_lease"]


def process_lease(queue: TaskQueue, leased: LeasedTask, worker_id: str, *,
                  task: Optional["BatchTask"] = None
                  ) -> Tuple[str, object, float]:
    """Run one leased task and settle its queue row.

    The single implementation of the worker-side protocol — store-dedup
    check, compute, publish, fail on captured error — shared by the
    inline drain below and :func:`repro.runtime.worker.drain` (which the
    chaos worker runs too), so exactly-once accounting can never diverge
    between them.
    The queue's store serves the dedup check and takes the publish: the
    result and the row's turn to ``done`` commit in one transaction
    (:meth:`TaskQueue.complete` with ``publish``), so a crash leaves
    either both or neither.  ``task`` is the caller's own copy of the
    leased task, which spares decoding the leased payload.

    Returns ``("deduped", None, 0.0)`` when the store already held the
    result, ``("computed", result, elapsed)`` on success (the result is
    already published), or ``("failed", (message, traceback), elapsed)``
    for a captured algorithm error (the row is already marked failed,
    with the message).  The result is published as the algorithm
    returned it; the inline drain passes ``elapsed`` on, so its runner
    can judge its own ``timeout``.
    """
    if queue.store.contains(leased.key):
        # Store-mediated dedup: someone already published this key
        # (another worker, or a previous run) — never compute twice.
        queue.complete(leased.key, worker_id, computed=False)
        return ("deduped", None, 0.0)
    task = leased.task if task is None else task
    t0 = time.perf_counter()
    status, payload = run_one(task.algorithm, task.instance,
                              task.kwargs_dict())
    elapsed = time.perf_counter() - t0
    if status == "ok":
        queue.complete(leased.key, worker_id, computed=True,
                       publish=(task, payload))
        return ("computed", payload, elapsed)
    message, _traceback = payload
    queue.fail(leased.key, worker_id, message)
    return ("failed", payload, elapsed)


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
        Whether the submitting process drains the queue too (default),
        leasing as ``inline-<pid>``.
    stall_timeout_s:
        Raise ``RuntimeError`` when no task completes for this many
        seconds (positive and finite; ``None`` waits forever).  A safety
        net for benchmarks and tests: with ``inline=False`` and every
        external worker dead, the submitter would otherwise block
        indefinitely.
    autoscale:
        Close the loop to "as fast as the hardware allows": a positive
        worker count (or ``True`` for the usable-CPU count) makes every
        :meth:`submit` spawn a ``python -m repro.runtime.supervisor``
        subprocess that watches the queue and manages a worker fleet of
        up to that many processes for the duration of the batch — one
        knob replaces starting workers by hand.  ``None`` (the default)
        and ``0`` disable autoscaling.  ``REPRO_AUTOSCALE`` reaches this
        parameter only through :class:`repro.api.SessionConfig`.

    The runner's ``timeout`` stays with this submitter: its inline drain
    yields the compute time it measured, which the runner judges, and a
    result computed by an external worker is yielded untimed
    (``elapsed`` is ``None``) and served as computed.
    """

    name = "queue"
    persists_results = True  # the store *is* the result transport

    def __init__(self, runner: "BatchRunner", *, lease_s: float = 60.0,
                 poll_s: float = 0.05, inline: bool = True,
                 stall_timeout_s: Optional[float] = None,
                 autoscale: Union[None, bool, int] = None) -> None:
        from repro.runtime.runner import usable_cpus
        super().__init__(runner)
        check_timeout(lease_s, "lease_s", none_ok=False)
        check_timeout(poll_s, "poll_s", none_ok=False)
        check_timeout(stall_timeout_s, "stall_timeout_s")
        autoscale = usable_cpus() if autoscale is True else autoscale or 0
        check_count(autoscale, "autoscale")
        self.lease_s = float(lease_s)
        self.poll_s = float(poll_s)
        self.inline = bool(inline)
        self.stall_timeout_s = stall_timeout_s
        self.worker_id = f"inline-{os.getpid()}"
        self.autoscale = autoscale

    def submit(self, tasks: Sequence["BatchTask"]) -> Iterator[Outcome]:
        store = self.runner.store
        if store is None:
            raise RuntimeError(
                "the queue backend needs a persistent store: construct the "
                "runner with store=... (the queue lives in the store file)")
        by_key: Dict[str, List[int]] = {}
        for idx, task in enumerate(tasks):
            by_key.setdefault(task.cache_key(), []).append(idx)
        queue = TaskQueue(store, lease_s=self.lease_s)
        unresolved = dict(by_key)  # key -> indices still awaiting a result
        armed: set = set()  # keys *we* queued (ok to cancel on early exit)
        supervisor = None
        try:
            armed = set(queue.enqueue(
                [tasks[indices[0]] for indices in by_key.values()]))
            if self.autoscale > 0:
                from repro.runtime.supervisor import spawn_supervisor
                supervisor = spawn_supervisor(store.path,
                                              max_workers=self.autoscale,
                                              lease_s=self.lease_s)
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
                    for idx in unresolved.pop(key):
                        yield idx, "ok", warm[key], None
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
                        error = (row.error or "task failed on a queue worker",
                                 None)
                        for idx in unresolved.pop(row.key):
                            yield idx, "error", error, None
                        progressed = True
                    elif row.status == "done" and not store.contains(row.key):
                        # A worker's result and its 'done' row commit
                        # together, so only eviction or a version purge
                        # gets here: the result is truly gone.
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
                            [tasks[unresolved[key][0]] for key in vanished]))
                        progressed = True

                # Drain one task ourselves (possibly someone else's — the
                # queue is shared; computing a sibling batch's task is how
                # N submitters help each other).
                if self.inline and unresolved:
                    leased = queue.lease(self.worker_id)
                    if leased is not None:
                        yield from self._work_off(queue, leased, unresolved,
                                                  tasks)
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
                            lease_s=self.lease_s)
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
                  tasks: Sequence["BatchTask"]) -> Iterator[Outcome]:
        """Compute one leased task; yield its outcome when it belongs to
        our batch.

        Mirrors the serial backend (captured errors, measured compute
        time) so a queue-backed runner without external workers is
        behaviourally a serial runner.  An overrunning task's (valid)
        result is still published before the runner turns its outcome
        into a local timeout sentinel: the runner's ``timeout`` is *this
        submitter's* latency policy, discarding the result would
        permanently fail the key for every submitter sharing the queue,
        and a warm store hit costs no latency, so serving it later cannot
        violate anyone's budget.
        """
        indices = unresolved.get(leased.key)
        task = tasks[indices[0]] if indices is not None else None
        outcome, payload, elapsed = process_lease(queue, leased,
                                                  self.worker_id, task=task)
        if task is None or outcome == "deduped":
            return  # a dedup hit of ours is served by the next store poll
        status = "error" if outcome == "failed" else "ok"
        for idx in unresolved.pop(leased.key):
            yield idx, status, payload, elapsed
