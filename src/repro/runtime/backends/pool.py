"""Process-pool execution backend (chunked dispatch, waves, crash recovery)."""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Iterator, List, Sequence, Tuple

import time

from repro.runtime.backends.base import (ExecutionBackend, Outcome,
                                         resolve_chunk_size, run_chunk,
                                         run_one)

if TYPE_CHECKING:
    from repro.runtime.runner import BatchTask

__all__ = ["PoolBackend", "terminate_workers"]


def _submit_all(pool: ProcessPoolExecutor, fn,
                calls: Sequence[tuple]) -> List[Future]:
    """``pool.submit(fn, *args)`` for each ``args`` in ``calls``.

    A worker can die while a batch is still being submitted.  ``submit``
    then raises, or — before CPython 3.12, whose manager thread fails the
    pending futures without holding the lock ``submit`` takes — hands
    back a future the broken pool never completes, and waiting on it
    hangs.  Both become futures holding ``BrokenProcessPool``, so the
    tasks go through the same casualty path as the in-flight ones.
    """
    futures: List[Future] = []
    for args in calls:
        try:
            futures.append(pool.submit(fn, *args))
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


def _died_outcome(exc: BaseException) -> Tuple[str, Tuple[str, None]]:
    """The ``(status, payload)`` of a task whose worker process died."""
    return _DIED, (f"worker died: {type(exc).__name__}: {exc}", None)


def terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Forcibly stop a pool's worker processes (used after a timeout).

    ``cancel_futures`` cannot stop a *running* task, so an abandoned pool
    would otherwise leak a stuck worker per timed-out batch.  Reaches into
    the executor's worker table; guarded so a CPython-internals change
    degrades to the old leak instead of an error.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:
            pass


class PoolBackend(ExecutionBackend):
    """Chunked ``concurrent.futures`` process-pool execution.

    * without a runner ``timeout``, tasks are grouped into chunks (see
      :func:`resolve_chunk_size`) so per-task pickling amortises, and each
      chunk's outcomes are yielded as its future completes;
    * with a ``timeout``, tasks are dispatched in *waves* of
      ``max_workers`` single-task futures, so every task starts its budget
      when it actually starts running (see :meth:`_iter_waves`);
    * a dying worker (OOM kill, native-code crash) breaks the whole pool;
      its casualties are recovered through :meth:`_retry_collateral` on
      fresh pools so one culprit cannot fail healthy siblings.
    """

    name = "pool"

    def submit(self, tasks: Sequence["BatchTask"]) -> Iterator[Outcome]:
        """Pool execution, yielding each outcome as its future completes.

        Outcomes arrive in arbitrary order; the yielded local indices keep
        the caller aligned.  Tasks whose worker died (breaking the pool)
        are withheld from the stream, then recovered at the end through
        the collateral-retry path on fresh pools, so a streaming consumer
        still sees exactly one outcome per task.  The pool times no task
        itself (``elapsed`` is ``None``): with a runner ``timeout``, the
        waves enforce it.
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

    def _dispatch(self, tasks: Sequence["BatchTask"]) -> Iterator[Outcome]:
        """One pool pass: waves with a runner ``timeout``, else chunks."""
        if self.runner.timeout is not None:
            return self._iter_waves(tasks)
        return self._iter_chunks(tasks)

    # ------------------------------------------------------------------
    # no-timeout mode: chunked dispatch
    # ------------------------------------------------------------------
    def _iter_chunks(self, tasks: Sequence["BatchTask"]) -> Iterator[Outcome]:
        """No-timeout mode: chunks of tasks per future (see
        :func:`resolve_chunk_size`), each chunk's outcomes yielded as its
        future completes; a chunk whose worker died yields ``_DIED``
        outcomes."""
        runner = self.runner
        chunk = resolve_chunk_size(runner.chunk_size, len(tasks),
                                   runner.max_workers)
        chunk_indices = [list(range(lo, min(lo + chunk, len(tasks))))
                         for lo in range(0, len(tasks), chunk)]
        pool = ProcessPoolExecutor(max_workers=runner.max_workers,
                                   mp_context=runner._mp_context)
        try:
            payloads = [[(tasks[i].algorithm, tasks[i].instance,
                          tasks[i].kwargs_dict()) for i in indices]
                        for indices in chunk_indices]
            future_to_indices = dict(zip(
                _submit_all(pool, run_chunk,
                            [(payload,) for payload in payloads]),
                chunk_indices))
            waiting = set(future_to_indices)
            while waiting:
                done, waiting = wait(waiting, return_when=FIRST_COMPLETED)
                for future in done:
                    indices = future_to_indices[future]
                    try:
                        outcomes = future.result()
                    except Exception as exc:  # worker died (OOM kill, segfault, …)
                        outcomes = [_died_outcome(exc)] * len(indices)
                    for local_idx, (status, payload) in zip(indices, outcomes):
                        yield local_idx, status, payload, None
        finally:
            # A consumer that closes the stream early (break / .close())
            # lands here with chunks still in flight; a plain barrier-style
            # shutdown would block for the whole remaining batch.  Cancel
            # what never started and terminate what did — abandoning the
            # work is the point of breaking out.
            pool.shutdown(wait=False, cancel_futures=True)
            terminate_workers(pool)

    # ------------------------------------------------------------------
    # timeout mode: wave dispatch
    # ------------------------------------------------------------------
    def _iter_waves(self, tasks: Sequence["BatchTask"]) -> Iterator[Outcome]:
        """Timeout mode: waves of ``max_workers`` single-task futures.

        Every task in a wave starts on a worker immediately, so its budget
        is a true per-task wall-clock budget — a queued task never burns its
        budget waiting behind a stuck sibling, and an early completion never
        extends the deadline of the others.  Outcomes are yielded the moment
        their future completes (``"timeout"`` ones at wave end); workers of
        timed-out tasks are terminated (they cannot be cancelled) and a
        fresh pool serves the next wave.
        """
        runner = self.runner
        cursor = 0
        pool = ProcessPoolExecutor(max_workers=runner.max_workers,
                                   mp_context=runner._mp_context)
        try:
            while cursor < len(tasks):
                wave = list(range(cursor,
                                  min(cursor + runner.max_workers, len(tasks))))
                cursor = wave[-1] + 1
                future_to_index = dict(zip(
                    _submit_all(pool, run_one,
                                [(tasks[idx].algorithm, tasks[idx].instance,
                                  tasks[idx].kwargs_dict()) for idx in wave]),
                    wave))
                deadline = time.monotonic() + runner.timeout
                pending = set(future_to_index)
                pool_broken = False
                while pending:
                    window = deadline - time.monotonic()
                    if window <= 0:
                        break
                    done, pending = wait(pending, timeout=window,
                                         return_when=FIRST_COMPLETED)
                    for future in done:
                        idx = future_to_index[future]
                        try:
                            status, payload = future.result()
                        except Exception as exc:  # worker died mid-task
                            pool_broken = True
                            status, payload = _died_outcome(exc)
                        yield idx, status, payload, None
                for future in pending:  # deadline passed, still running
                    yield future_to_index[future], "timeout", None, None
                if pending or pool_broken:  # pool is stuck or broken: replace it
                    pool.shutdown(wait=False, cancel_futures=True)
                    terminate_workers(pool)
                    pool = ProcessPoolExecutor(max_workers=runner.max_workers,
                                               mp_context=runner._mp_context)
        finally:
            # Also reached when the consumer closes the stream mid-wave;
            # terminate so an abandoned wave cannot leak running workers.
            pool.shutdown(wait=False, cancel_futures=True)
            terminate_workers(pool)

    # ------------------------------------------------------------------
    # worker-death recovery
    # ------------------------------------------------------------------
    def _retry_collateral(self, tasks: Sequence["BatchTask"]
                          ) -> List[Tuple[str, object]]:
        """Re-run tasks whose worker died; their ``(status, payload)`` in order.

        A dying worker (OOM kill, native-code crash) breaks the whole
        ``ProcessPoolExecutor``, failing healthy in-flight siblings along
        with the culprit.  Casualties are first retried together on one
        fresh pool (cheap, recovers everything when the culprit's death
        was load-induced); any task that dies again is then isolated in
        its own single-task pool so a deterministic culprit cannot keep
        poisoning the others.  A task that dies there too is an
        ``"error"`` carrying the death.
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
