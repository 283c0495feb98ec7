"""Process-pool execution backend (chunked dispatch, timeouts, crash recovery)."""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Dict, Iterator, List, Sequence, Tuple

import math
import time

from repro.runtime.backends.base import (ExecutionBackend, Outcome,
                                         tasks_per_chunk, run_chunk)

if TYPE_CHECKING:
    from repro.runtime.runner import BatchTask

__all__ = ["PoolBackend"]


def _submit_all(pool: ProcessPoolExecutor,
                payloads: Sequence[list]) -> List[Future]:
    """``pool.submit(run_chunk, payload)`` for each of ``payloads``.

    A worker can die while a batch is still being submitted.  ``submit``
    then raises, or — before CPython 3.12, whose manager thread fails the
    pending futures without holding the lock ``submit`` takes — hands
    back a future the broken pool never completes, and waiting on it
    hangs.  Both become futures holding ``BrokenProcessPool``, so the
    tasks go through the same casualty path as the in-flight ones.
    """
    futures: List[Future] = []
    for payload in payloads:
        try:
            futures.append(pool.submit(run_chunk, payload))
        except BrokenProcessPool as exc:
            failed: Future = Future()
            failed.set_exception(exc)
            futures.append(failed)
    broken = getattr(pool, "_broken", False)
    if broken:
        manager = getattr(pool, "_executor_manager_thread", None)
        if manager is not None:
            manager.join()  # it has failed every future it knew about
        for future in futures:
            if not future.done():
                future.set_exception(BrokenProcessPool(broken))
    return futures


#: The pool's own status for a task whose worker process died.  It never
#: leaves the backend: a casualty is retried, and one that dies again in a
#: pool of its own is yielded as an ``"error"``.
_DIED = "died"


def _settled(future: Future, chunk: range) -> Iterator[Outcome]:
    """The outcomes of a settled chunk future: ``_DIED`` if its worker died."""
    try:
        pairs = future.result()
    except Exception as exc:  # worker died (OOM kill, segfault, …)
        death = f"worker died: {type(exc).__name__}: {exc}"
        pairs = [(_DIED, (death, None))] * len(chunk)
    for idx, (status, payload) in zip(chunk, pairs):
        yield idx, status, payload, None


def _close_pool(pool: ProcessPoolExecutor) -> None:
    """Stop a pool now: kill its workers, then join its manager thread.

    ``shutdown`` cannot stop a *running* task, so the workers are
    terminated first, while the executor still lists them (``shutdown``
    drops that table).  The manager thread then fails every unfinished
    future with ``BrokenProcessPool`` and exits, so on return every
    future of the pool is settled and no thread or worker of it is left
    for interpreter exit to wait on.  Reaching into the worker table is
    guarded: a CPython-internals change degrades to a shutdown that waits
    for the running tasks.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:
            pass
    pool.shutdown(wait=True)


class PoolBackend(ExecutionBackend):
    """Chunked ``concurrent.futures`` process-pool execution.

    * tasks are grouped into chunks (see :func:`tasks_per_chunk`) so
      per-task pickling amortises, and each chunk's outcomes are yielded
      as its future completes;
    * with a runner ``timeout``, each chunk is one task and at most
      ``max_workers`` are in flight, so a task starts running when it is
      submitted and its deadline runs from then: a queued task never
      burns its budget behind a stuck sibling (see :meth:`_dispatch`);
    * a dying worker (OOM kill, native-code crash) breaks the whole pool;
      its casualties are recovered through :meth:`_retry_collateral` on
      fresh pools so one culprit cannot fail healthy siblings.
    """

    name = "pool"

    def submit(self, tasks: Sequence["BatchTask"]) -> Iterator[Outcome]:
        """Pool execution, yielding each outcome as its future completes.

        Outcomes arrive in arbitrary order; the yielded local indices keep
        the caller aligned.  Tasks whose worker died (breaking the pool),
        or that a replaced pool still held, are withheld from the stream,
        then recovered at the end through the collateral-retry path on
        fresh pools, so a streaming consumer still sees exactly one
        outcome per task.  The pool times no task
        itself (``elapsed`` is ``None``): with a runner ``timeout``, the
        dispatch loop's deadlines enforce it.
        """
        casualties: List[int] = []
        for local_idx, status, payload, elapsed in self._dispatch(tasks):
            if status == _DIED:
                casualties.append(local_idx)
            else:
                yield local_idx, status, payload, elapsed
        if casualties:
            casualties.sort()
            recovered = self._retry_collateral([tasks[i] for i in casualties])
            for local_idx, (status, payload) in zip(casualties, recovered):
                yield local_idx, status, payload, None

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.runner.max_workers,
                                   mp_context=self.runner._mp_context)

    def _dispatch(self, tasks: Sequence["BatchTask"]) -> Iterator[Outcome]:
        """One pool pass, yielding each chunk's outcomes as it completes.

        Without a runner ``timeout`` every chunk is submitted at once.
        With one, chunks hold one task each and at most ``max_workers``
        are in flight; each task's deadline runs from its own submission.
        A task past its deadline yields ``"timeout"`` and its (presumably
        stuck) pool is replaced, as is one a worker death broke.  Tasks
        the replaced pool still held yield ``_DIED``, for
        :meth:`_retry_collateral` to re-run.
        """
        timeout = self.runner.timeout
        size = (1 if timeout is not None else
                tasks_per_chunk(len(tasks), self.runner.max_workers))
        chunks = [range(lo, min(lo + size, len(tasks)))
                  for lo in range(0, len(tasks), size)]
        cap = len(chunks) if timeout is None else self.runner.max_workers
        in_flight: Dict[Future, Tuple[range, float]] = {}
        pool = self._new_pool()
        try:
            while chunks or in_flight:
                sent = chunks[:cap - len(in_flight)]
                del chunks[:len(sent)]
                deadline = (time.monotonic() + timeout if timeout is not None
                            else math.inf)
                payloads = [[(tasks[i].algorithm, tasks[i].instance,
                              tasks[i].kwargs_dict()) for i in chunk]
                            for chunk in sent]
                for future, chunk in zip(_submit_all(pool, payloads), sent):
                    in_flight[future] = (chunk, deadline)
                first = min(deadline for _, deadline in in_flight.values())
                window = (None if first == math.inf
                          else max(0.0, first - time.monotonic()))
                done, _ = wait(in_flight, timeout=window,
                               return_when=FIRST_COMPLETED)
                died = any(future.exception() is not None for future in done)
                for future in done:
                    yield from _settled(future, in_flight.pop(future)[0])
                now = time.monotonic()
                expired = [future for future, (_, deadline) in in_flight.items()
                           if deadline <= now]
                if not (expired or died):
                    continue
                _close_pool(pool)  # settles every future still in flight
                pool = self._new_pool()
                for future in expired:
                    yield in_flight.pop(future)[0][0], "timeout", None, None
                for future, (chunk, _) in in_flight.items():
                    yield from _settled(future, chunk)
                in_flight.clear()
        finally:
            # Also reached when the consumer closes the stream early: the
            # work still in flight is abandoned, not waited for.
            _close_pool(pool)

    # ------------------------------------------------------------------
    # worker-death recovery
    # ------------------------------------------------------------------
    def _retry_collateral(self, tasks: Sequence["BatchTask"]
                          ) -> List[Tuple[str, object]]:
        """Re-run tasks whose worker died; their ``(status, payload)`` in order.

        A dying worker (OOM kill, native-code crash) breaks the whole
        ``ProcessPoolExecutor``, failing healthy in-flight siblings along
        with the culprit; a timeout kills its siblings the same way.
        Casualties are first retried together on one fresh pool (cheap,
        recovers everything when the culprit's death was load-induced);
        any task that dies again is then isolated in its own single-task
        pool so a deterministic culprit cannot keep poisoning the others.
        A task that dies there too is an ``"error"`` carrying the death.
        """
        outcomes = self._execute_pool(tasks)
        for i, (status, _) in enumerate(outcomes):
            if status == _DIED:
                outcomes[i] = self._execute_pool([tasks[i]])[0]
        return [("error", payload) if status == _DIED else (status, payload)
                for status, payload in outcomes]

    def _execute_pool(self, tasks: Sequence["BatchTask"]
                      ) -> List[Tuple[str, object]]:
        """One pool pass's ``(status, payload)`` pairs in submission order."""
        return [(status, payload) for _, status, payload, _ in
                sorted(self._dispatch(tasks), key=lambda outcome: outcome[0])]
