"""Process-pool execution backend (chunked dispatch, waves, crash recovery)."""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Iterator, List, Sequence, Tuple

import time

from repro.runtime.backends.base import (ExecutionBackend,
                                         resolve_chunk_size, run_chunk,
                                         run_one)

if TYPE_CHECKING:
    from repro.algorithms.base import AlgorithmResult
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


def _died_outcome(exc: BaseException) -> Tuple[str, Tuple[str, None]]:
    """The ``(status, outcome)`` of a task whose worker process died."""
    return "error", (f"worker died: {type(exc).__name__}: {exc}", None)


def _worker_died(result: "AlgorithmResult") -> bool:
    return "worker died" in str(result.meta.get("error", ""))


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
      chunk's results are yielded as its future completes;
    * with a ``timeout``, tasks are dispatched in *waves* of
      ``max_workers`` single-task futures, so every task starts its budget
      when it actually starts running (see :meth:`_iter_waves`);
    * a dying worker (OOM kill, native-code crash) breaks the whole pool;
      its casualties are recovered through :meth:`_retry_collateral` on
      fresh pools so one culprit cannot fail healthy siblings.
    """

    name = "pool"

    def submit(self, tasks: Sequence["BatchTask"]
               ) -> Iterator[Tuple[int, "AlgorithmResult"]]:
        """Pool execution, yielding each result as its future completes.

        Results arrive in arbitrary order; the yielded local indices keep
        the caller aligned.  Tasks whose worker died (breaking the pool)
        are withheld from the stream, then recovered at the end through
        the collateral-retry path on fresh pools, so a streaming consumer
        still sees exactly one result per task.
        """
        casualties: List[Tuple[int, "AlgorithmResult"]] = []
        for local_idx, result in self._dispatch(tasks):
            if _worker_died(result):
                casualties.append((local_idx, result))
            else:
                yield local_idx, result
        if casualties:
            casualties.sort(key=lambda pair: pair[0])
            recovered = self._retry_collateral(
                [tasks[i] for i, _ in casualties], [r for _, r in casualties])
            for (local_idx, _), result in zip(casualties, recovered):
                yield local_idx, result

    def _dispatch(self, tasks: Sequence["BatchTask"]
                  ) -> Iterator[Tuple[int, "AlgorithmResult"]]:
        """One pool pass: waves with a runner ``timeout``, else chunks."""
        if self.runner.timeout is not None:
            return self._iter_waves(tasks)
        return self._iter_chunks(tasks)

    # ------------------------------------------------------------------
    # no-timeout mode: chunked dispatch
    # ------------------------------------------------------------------
    def _iter_chunks(self, tasks: Sequence["BatchTask"]
                     ) -> Iterator[Tuple[int, "AlgorithmResult"]]:
        """No-timeout mode: chunks of tasks per future (see
        :func:`resolve_chunk_size`), each chunk's results yielded as its
        future completes; a chunk whose worker died yields "worker died"
        sentinels."""
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
                    for local_idx, (status, outcome) in zip(indices, outcomes):
                        yield local_idx, runner._finalise(tasks[local_idx],
                                                          status, outcome)
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
    def _iter_waves(self, tasks: Sequence["BatchTask"]
                    ) -> Iterator[Tuple[int, "AlgorithmResult"]]:
        """Timeout mode: waves of ``max_workers`` single-task futures.

        Every task in a wave starts on a worker immediately, so its budget
        is a true per-task wall-clock budget — a queued task never burns its
        budget waiting behind a stuck sibling, and an early completion never
        extends the deadline of the others.  Results are yielded the moment
        their future completes (timeout sentinels at wave end); workers of
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
                            status, outcome = future.result()
                        except Exception as exc:  # worker died mid-task
                            pool_broken = True
                            status, outcome = _died_outcome(exc)
                        yield idx, runner._finalise(tasks[idx], status, outcome)
                if pending:  # deadline passed with tasks still running
                    for future in pending:
                        idx = future_to_index[future]
                        runner.stats["timeouts"] += 1
                        yield idx, runner._sentinel(tasks[idx], timeout=True)
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
    def _retry_collateral(self, tasks: Sequence["BatchTask"],
                          results: List["AlgorithmResult"]
                          ) -> List["AlgorithmResult"]:
        """Re-run tasks that failed because a *sibling's* worker died.

        A dying worker (OOM kill, native-code crash) breaks the whole
        ``ProcessPoolExecutor``, failing healthy in-flight siblings along
        with the culprit.  Casualties are first retried together on one
        fresh pool (cheap, recovers everything when the culprit's death
        was load-induced); any task that dies again is then isolated in
        its own single-task pool so a deterministic culprit cannot keep
        poisoning the others.  After that it keeps its sentinel.
        """
        def dead_indices(rs: List["AlgorithmResult"]) -> List[int]:
            return [i for i, r in enumerate(rs) if _worker_died(r)]

        dead = dead_indices(results)
        if not dead:
            return results
        group = self._execute_pool([tasks[i] for i in dead])
        self.runner.stats["errors"] -= len(dead)  # superseded by the retry outcomes
        for idx, result in zip(dead, group):
            results[idx] = result
        still_dead = dead_indices(results)
        self.runner.stats["errors"] -= len(still_dead)
        for idx in still_dead:
            results[idx] = self._execute_pool([tasks[idx]])[0]
        return results

    def _execute_pool(self, tasks: Sequence["BatchTask"]
                      ) -> List["AlgorithmResult"]:
        """Collect one pool pass in submission order (collateral-retry path)."""
        return [result for _, result in sorted(self._dispatch(tasks),
                                               key=lambda pair: pair[0])]
