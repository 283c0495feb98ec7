"""Batched, parallel execution of ``(algorithm × instance)`` grids.

:class:`BatchRunner` is the execution engine behind the experiment harness
and the portfolio mode:

* **chunked process-pool dispatch** — tasks are grouped into chunks and
  shipped to a ``concurrent.futures.ProcessPoolExecutor`` so per-task
  pickling overhead amortises; with one worker (or ``max_workers=1``) the
  runner degrades to plain in-process execution with zero pool overhead;
* **content-hash result caching** — each task is keyed by a SHA-256
  fingerprint of the instance *content* (not its name), the algorithm name
  and its keyword arguments; re-running the same work returns the identical
  :class:`~repro.algorithms.base.AlgorithmResult` object;
* **streaming delivery** — :meth:`BatchRunner.run_iter` yields results as
  chunks complete instead of waiting on a batch barrier, so a serving loop
  can forward each schedule the moment it exists; :meth:`BatchRunner.run`
  and :meth:`BatchRunner.run_tasks` are thin collecting wrappers over it;
* **persistent result store** — with ``store=`` set, successful results
  are written through to an on-disk
  :class:`~repro.store.result_store.ResultStore` in groups: one
  transaction per group of fresh results whose compute time reaches
  0.1 s, plus one for the rest when the stream ends, is closed or raises
  (so a task of 0.1 s or more is stored before it is yielded).  A crash
  loses at most the held group, under 0.1 s of compute, which is only
  recomputed: the store is a cache.  Warm keys are bulk-prefetched and
  *streamed immediately*, before any pool work starts, and survive
  process restarts (unlike the in-memory cache);
* **cost-model-driven ordering** — when the store has recorded wall
  times, a fitted :class:`~repro.store.cost_model.CostModel` orders
  cold tasks by descending predicted cost before chunking (cutting pool
  idle time under heavy MILP/PTAS tasks).  Ordering is all it does:
  which tasks run and what their results record never depend on it;
* **timeout / error capture** — a failing or timed-out task never takes the
  batch down; it yields a sentinel result with ``makespan = inf`` and the
  failure recorded in ``result.meta`` (``"error"`` / ``"timeout"`` keys).
  The runner's ``timeout`` is the only per-task time limit, and
  :meth:`BatchRunner._finalise` is the only place an outcome becomes a
  result or a sentinel, whichever backend ran the task;
* **portfolio mode** — :meth:`BatchRunner.portfolio` runs every applicable
  registered algorithm on each instance and keeps the best schedule, with
  deterministic ``(makespan, algorithm name)`` tie-breaking.

Where cold tasks actually *run* is delegated to a pluggable
:class:`~repro.runtime.backends.ExecutionBackend`
(``backend="serial" | "pool" | "queue"``): the runner keeps orchestration —
cache and store lookup, cost ordering, streaming merge, finalisation and
stats — while the backend owns execution, including the distributed
SQLite work queue drained by ``python -m repro.runtime.worker``
processes, and yields raw ``(index, status, payload, elapsed)`` outcomes.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from repro.algorithms.base import AlgorithmResult
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.runtime.backends import ExecutionBackend, make_backend
from repro.runtime.backends.base import tasks_per_chunk
from repro.runtime.registry import algorithms_for, get_algorithm
from repro.store import CostModel, ResultStore
from repro.store.checks import check_timeout

__all__ = ["BatchTask", "BatchResult", "BatchRunner", "instance_fingerprint",
           "usable_cpus"]


#: ``str(dtype).encode()`` per dtype seen: ``dtype.__str__`` is slow
#: enough to show on cheap sweeps, and the hashed bytes must not change.
_DTYPE_TAGS: Dict[np.dtype, bytes] = {}

#: Fresh results are written to the store in one transaction per group
#: whose compute (the backend's time to produce them) reaches this many
#: seconds, and when the stream ends.  A task at least this long is
#: stored before it is yielded.
_GROUP_COMMIT_S = 0.1

#: The store-fitted cost model is refitted (lazily, on its next use)
#: after this many results are written through the runner's store
#: handle, so predictions track the runs the store just absorbed.
_REFIT_EVERY = 200


def _hash_array(h, arr: np.ndarray) -> None:
    """Feed an array's content (dtype, shape, bytes) into a hash."""
    a = np.ascontiguousarray(arr)
    tag = _DTYPE_TAGS.get(a.dtype)
    if tag is None:
        tag = _DTYPE_TAGS[a.dtype] = str(a.dtype).encode()
    h.update(tag)
    h.update(str(a.shape).encode())
    h.update(a.tobytes())


def instance_fingerprint(instance: Instance) -> str:
    """SHA-256 content hash of an instance (name and meta excluded).

    Two instances with identical matrices hash identically regardless of how
    they were generated, so cached results survive regeneration.  Memoised
    on the frozen instance, outside its state like its class index: an
    (A algorithms x I instances) grid would otherwise hash each one A times.
    """
    fingerprint = instance.__dict__.get("_fingerprint")
    if fingerprint is not None:
        return fingerprint
    h = hashlib.sha256()
    h.update(instance.environment.value.encode())
    for arr in (instance.processing, instance.setups, instance.job_classes,
                instance.speeds, instance.job_sizes, instance.setup_sizes):
        if arr is None:
            h.update(b"\x00none")
        else:
            _hash_array(h, arr)
    fingerprint = h.hexdigest()
    object.__setattr__(instance, "_fingerprint", fingerprint)
    return fingerprint


@dataclass(frozen=True, eq=False)
class BatchTask:
    """One unit of work: run ``algorithm`` on ``instance`` with ``kwargs``.

    Equality/hashing stay identity-based (``eq=False``): the embedded
    numpy arrays make field-wise ``==`` ambiguous.  Use :meth:`cache_key`
    when two tasks must be compared by content.
    """

    algorithm: str
    instance: Instance
    kwargs: Tuple[Tuple[str, object], ...] = ()

    @staticmethod
    def make(algorithm: str, instance: Instance,
             kwargs: Optional[Dict[str, object]] = None) -> "BatchTask":
        """Build a task, normalising kwargs into a sorted tuple of pairs."""
        items = tuple(sorted((kwargs or {}).items()))
        return BatchTask(algorithm=algorithm, instance=instance, kwargs=items)

    def kwargs_dict(self) -> Dict[str, object]:
        return dict(self.kwargs)

    def cache_key(self) -> str:
        """Content-hash cache key for this task.

        Computed once per task object and memoised on it, which is sound
        because the task is frozen: the runner, the store's prefetch and
        its put all ask for the same key.
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            h = hashlib.sha256()
            h.update(self.algorithm.encode())
            _hash_value(h, self.kwargs)
            h.update(instance_fingerprint(self.instance).encode())
            key = h.hexdigest()
            object.__setattr__(self, "_cache_key", key)
        return key


def _hash_value(h, value) -> None:
    """Feed a kwargs value into a hash by *content*.

    ``repr`` alone would collide for large numpy arrays (whose repr elides
    the middle) — arrays hash dtype+shape+bytes instead.  Objects with
    address-bearing default reprs merely defeat caching (every instance
    hashes differently), which is safe.
    """
    if isinstance(value, np.ndarray):
        h.update(b"ndarray")
        _hash_array(h, value)
    elif isinstance(value, (tuple, list)):
        h.update(f"seq{len(value)}".encode())
        for item in value:
            _hash_value(h, item)
    elif isinstance(value, dict):
        h.update(f"map{len(value)}".encode())
        for key in sorted(value, key=repr):
            _hash_value(h, key)
            _hash_value(h, value[key])
    else:
        h.update(repr(value).encode())


@dataclass
class BatchResult:
    """Results of one grid run, aligned with the submitted tasks."""

    tasks: List[BatchTask]
    results: List[AlgorithmResult]
    wall_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.results)

    def by_algorithm(self, name: str) -> List[AlgorithmResult]:
        """Results of one algorithm, in instance order.

        Raises when the batch ran ``name`` with more than one kwargs
        variant: the flat result list could then not be zipped against the
        instance list without silently mispairing results.
        """
        matched = [(t, r) for t, r in zip(self.tasks, self.results)
                   if t.algorithm == name]
        if len({repr(t.kwargs) for t, _ in matched}) > 1:
            raise ValueError(
                f"by_algorithm({name!r}) is ambiguous: the batch ran it with "
                f"multiple kwargs variants; index batch.tasks/results directly")
        return [r for _, r in matched]

    def failures(self) -> List[AlgorithmResult]:
        """Results whose task errored or timed out."""
        return [r for r in self.results if r.meta.get("error") or r.meta.get("timeout")]

    def raise_for_failures(self) -> "BatchResult":
        """Raise ``RuntimeError`` if any task failed; return self otherwise.

        For callers (like the experiment harness) where a failed algorithm
        run is a bug to surface, not a result to serve: without this check
        a sentinel's ``inf`` makespan would flow silently into reported
        numbers.
        """
        failed = self.failures()
        if failed:
            first = failed[0]
            detail = first.meta.get("error") or "timeout"
            raise RuntimeError(
                f"{len(failed)}/{len(self.results)} batch tasks failed; first: "
                f"{first.name} on {first.meta.get('instance')!r}: {detail}")
        return self

    def throughput(self) -> float:
        """Completed tasks per second of wall-clock time."""
        if self.wall_seconds <= 0:
            return float("inf") if self.results else 0.0
        return len(self.results) / self.wall_seconds


class BatchRunner:
    """Execute algorithm/instance grids through a pluggable backend.

    Parameters
    ----------
    max_workers:
        Pool size; ``None`` auto-detects the usable CPU count.  With
        ``backend=None`` a resolved value of 1 runs tasks in-process (no
        pool, no pickling); ``backend="pool"`` forks a pool regardless.
    timeout:
        Per-task wall-clock limit in seconds (positive and finite), or
        ``None`` for none.  It judges only tasks this runner computes: a
        queue task computed by an external worker is served as computed.
        In pool mode at most ``max_workers`` tasks are in flight, one per
        future, and each task's budget runs from its own submission, so it
        starts when the task starts running; a task whose result has not
        arrived by then yields a timeout sentinel, its (presumably stuck)
        pool's workers are terminated, and a fresh pool serves the rest,
        re-running the tasks the old one still held.  In in-process mode
        the check is necessarily post-hoc (the task runs to completion,
        then is replaced by the sentinel).
    store:
        Optional persistent result store: a
        :class:`~repro.store.result_store.ResultStore`, or a path that one
        is opened at.  Successful results are written through to it, and
        warm keys are served from it (streamed first by
        :meth:`run_iter`) across process restarts.  Failure sentinels are
        never persisted.
    backend:
        Where cold tasks execute: a name from
        :data:`repro.runtime.backends.BACKENDS` (``"serial"``, ``"pool"``,
        ``"queue"``), or ``None`` for a process pool iff ``max_workers``
        resolves above 1 and in-process execution otherwise.  The
        queue backend additionally needs a ``store`` (the queue lives in
        the store file) and is drained by this process and/or external
        ``python -m repro.runtime.worker`` processes.
    backend_options:
        Extra constructor kwargs for the backend (e.g.
        ``{"inline": False, "lease_s": 10.0}`` for ``"queue"``).

    Every task goes through the content-hash result cache: a cache hit
    returns the *identical* ``AlgorithmResult`` object that the first run
    produced, whatever the name of the instance it is asked for (treat
    results as immutable).
    """

    def __init__(
        self,
        *,
        max_workers: Optional[int] = None,
        timeout: Optional[float] = None,
        store: Union[None, str, Path, ResultStore] = None,
        backend: Optional[str] = None,
        backend_options: Optional[Dict[str, object]] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        check_timeout(timeout, "timeout")
        self.max_workers = max_workers if max_workers is not None else usable_cpus()
        self.timeout = timeout
        if isinstance(store, (str, Path)):
            store = ResultStore(store)
        self.store: Optional[ResultStore] = store
        self._cost_model: Optional[CostModel] = None
        self._fit_due = True  # fit (again) on the next cost_model() call
        self._next_refit_at = self._refit_threshold()
        # Fork where available, so registry state (including dynamically
        # registered algorithms) reaches the workers.
        self._mp_context = (multiprocessing.get_context("fork")
                            if "fork" in multiprocessing.get_all_start_methods()
                            else None)
        self._cache: Dict[str, AlgorithmResult] = {}
        self.stats: Dict[str, int] = {"tasks": 0, "cache_hits": 0,
                                      "store_hits": 0, "store_puts": 0,
                                      "errors": 0, "timeouts": 0}
        self.backend: ExecutionBackend = make_backend(backend, self,
                                                      backend_options)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(
        self,
        algorithms: Sequence[Union[str, Tuple[str, Dict[str, object]]]],
        instances: Sequence[Instance],
        *,
        kwargs: Optional[Dict[str, Dict[str, object]]] = None,
    ) -> BatchResult:
        """Run every algorithm on every instance (full grid).

        ``algorithms`` entries are registry names or ``(name, kwargs)``
        pairs; ``kwargs`` optionally adds per-algorithm keyword arguments by
        name.  Results come back grouped per algorithm in instance order
        (use :meth:`BatchResult.by_algorithm`).
        """
        tasks: List[BatchTask] = []
        for entry in algorithms:
            name, base_kwargs = entry if isinstance(entry, tuple) else (entry, {})
            merged = {**base_kwargs, **(kwargs or {}).get(name, {})}
            for instance in instances:
                tasks.append(BatchTask.make(name, instance, merged))
        return self.run_tasks(tasks)

    def run_tasks(self, tasks: Sequence[BatchTask]) -> BatchResult:
        """Execute an explicit task list; results align with task order.

        A thin barrier over :meth:`run_iter`: it drains the stream into a
        list.  Callers that can act on partial results should iterate
        :meth:`run_iter` directly.
        """
        tasks = list(tasks)
        start = time.perf_counter()
        results: List[Optional[AlgorithmResult]] = [None] * len(tasks)
        for idx, result in self.run_iter(tasks):
            results[idx] = result
        wall = time.perf_counter() - start
        return BatchResult(tasks=tasks, results=list(results), wall_seconds=wall)

    def run_iter(self, tasks: Sequence[BatchTask]
                 ) -> Iterator[Tuple[int, AlgorithmResult]]:
        """Stream ``(task_index, result)`` pairs as they become available.

        Delivery order (not submission order):

        1. in-memory cache hits — immediately, in task order;
        2. persistent-store hits — after one bulk prefetch, in task order,
           still before any pool work starts (a warm re-run never forks a
           worker);
        3. fresh results — as their chunk completes on the pool (or one by
           one in in-process mode), with cold tasks dispatched in
           descending predicted-cost order when a cost model is available.

        Every yielded pair carries the index into ``tasks``, so a consumer
        needing alignment can scatter into a list (that is exactly what
        :meth:`run_tasks` does).  Successful fresh results enter the
        in-memory cache before being yielded; the persistent store, when
        configured, takes them in groups (see the module docstring), and
        every group is committed by the time the stream ends, is closed
        or raises.
        """
        tasks = list(tasks)
        keys: List[str] = []
        cold: List[int] = []
        for idx, task in enumerate(tasks):
            self.stats["tasks"] += 1
            key = task.cache_key()
            keys.append(key)
            hit = self._cache.get(key)
            if hit is not None:
                self.stats["cache_hits"] += 1
                yield idx, hit
            else:
                cold.append(idx)

        pending = cold
        if self.store is not None and cold:
            pending = []
            warm = self.store.prefetch([tasks[i] for i in cold])
            for idx in cold:
                hit = warm.get(keys[idx])
                if hit is not None:
                    self._cache[keys[idx]] = hit
                    self.stats["store_hits"] += 1
                    yield idx, hit
                else:
                    pending.append(idx)

        if not pending:
            return
        ordered = self._order_by_cost(tasks, pending)
        ordered_tasks = [tasks[i] for i in ordered]
        # Write-through in groups: a queue backend publishes each result
        # itself; otherwise fresh results wait here (never in an open
        # transaction across a yield) until the time the backend took to
        # produce them reaches _GROUP_COMMIT_S, and the rest go when the
        # stream ends.  The time is measured here, not read from
        # `runtime_seconds`, which an algorithm need not report.
        group: Optional[List[Tuple[BatchTask, AlgorithmResult]]] = (
            [] if self.store is not None and not self.backend.persists_results
            else None)
        group_s = 0.0
        resumed = time.perf_counter()
        try:
            for local_idx, status, payload, elapsed in self.backend.submit(
                    ordered_tasks):
                idx = ordered[local_idx]
                result = self._finalise(tasks[idx], status, payload, elapsed)
                if not (result.meta.get("error") or result.meta.get("timeout")):
                    self._cache[keys[idx]] = result
                    if group is None:
                        self._maybe_rearm_cost_model()
                    else:
                        group.append((tasks[idx], result))
                        group_s += time.perf_counter() - resumed
                        if group_s >= _GROUP_COMMIT_S:
                            self._write_group(group)
                            group_s = 0.0
                yield idx, result
                resumed = time.perf_counter()
        finally:
            if group:
                self._write_group(group)

    def _write_group(self, group: List[Tuple[BatchTask, AlgorithmResult]]
                     ) -> None:
        """Store ``group`` in one transaction, empty it, and re-arm the
        cost model if the store's put count crossed its threshold."""
        self.store.put_many(group)
        self.stats["store_puts"] += len(group)
        group.clear()
        self._maybe_rearm_cost_model()

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------
    def cost_model(self) -> Optional[CostModel]:
        """The runner's cost model, fitted lazily from the store.

        Returns ``None`` without a store, or when the store holds no
        recorded runs to learn from (e.g. a cold store on first use).
        """
        if self._fit_due:
            self._fit_due = False
            self._cost_model = None
            if self.store is not None and len(self.store) > 0:
                self._cost_model = CostModel.fit_from_store(self.store)
        return self._cost_model

    def _refit_threshold(self) -> Optional[int]:
        """Store-put count at which the next refit should trigger."""
        if self.store is None:
            return None
        return self.store.stats_counters["puts"] + _REFIT_EVERY

    def _maybe_rearm_cost_model(self) -> None:
        """Re-arm the cost model every ``_REFIT_EVERY`` store puts.

        The counter watched is the attached store handle's ``puts`` — with
        :func:`repro.runtime.pool.get_runner` sharing one :class:`ResultStore`
        across runners, every tenant's writes advance the same counter, so
        any of them crossing the threshold refreshes this runner's
        predictions.  Re-arming is lazy (the actual fit happens on the next
        :meth:`cost_model` call), so a burst of puts costs one refit, not
        one per put.
        """
        if self._next_refit_at is None:
            return
        if self.store.stats_counters["puts"] >= self._next_refit_at:
            self._fit_due = True
            self._next_refit_at = self._refit_threshold()

    def _order_by_cost(self, tasks: Sequence[BatchTask],
                       pending: List[int]) -> List[int]:
        """Order cold task indices by the cost model's dispatch policy
        (descending predicted cost; see :meth:`CostModel.order_indices`).
        Model-less runs keep submission order."""
        if len(pending) <= 1:
            return pending
        model = self.cost_model()
        if model is None:
            return pending
        order = model.order_indices([tasks[i] for i in pending])
        return [pending[j] for j in order]

    def run_one(self, algorithm: str, instance: Instance,
                **kwargs: object) -> AlgorithmResult:
        """Run a single task through the batch machinery (cache included)."""
        return self.run_tasks([BatchTask.make(algorithm, instance, kwargs)]).results[0]

    def portfolio(
        self,
        instances: Sequence[Instance],
        algorithms: Optional[Sequence[str]] = None,
        *,
        kwargs: Optional[Dict[str, Dict[str, object]]] = None,
    ) -> List[AlgorithmResult]:
        """Best schedule per instance across a set of algorithms.

        When ``algorithms`` is ``None`` the registry's capability lookup
        picks every applicable (non-exact) algorithm per instance;
        ``randomized``-tagged algorithms get a seed derived from the
        instance content unless the caller provides one, keeping repeated
        portfolio calls reproducible.  Failed
        and timed-out runs never beat a successful one; if *every*
        candidate failed, the (name-deterministic) failure sentinel is
        returned so the caller can inspect ``result.meta`` — check
        ``meta.get("error") / meta.get("timeout")`` before serving a
        schedule.  Ties on makespan break by algorithm name, so the
        outcome is deterministic regardless of worker scheduling.
        Every candidate runs, whatever the store has recorded; the
        runner's ``timeout`` is the only limit on a candidate's time.
        """
        tasks: List[BatchTask] = []
        spans: List[Tuple[int, int]] = []
        for instance in instances:
            names = (sorted(algorithms) if algorithms is not None
                     else [spec.name for spec in algorithms_for(instance)])
            if not names:
                raise ValueError(
                    f"no registered algorithm supports instance {instance.name!r}")
            lo = len(tasks)
            for name in names:
                task_kwargs = dict((kwargs or {}).get(name) or {})
                spec = get_algorithm(name)
                if "randomized" in spec.tags and "seed" not in task_kwargs:
                    # Seed from the instance content so repeated portfolio
                    # calls stay reproducible (and cache-coherent).
                    task_kwargs["seed"] = int(instance_fingerprint(instance)[:8], 16)
                tasks.append(BatchTask.make(name, instance, task_kwargs))
            spans.append((lo, len(tasks)))
        batch = self.run_tasks(tasks)

        best: List[AlgorithmResult] = []
        for lo, hi in spans:
            candidates = [r for r in batch.results[lo:hi]
                          if not (r.meta.get("error") or r.meta.get("timeout"))]
            if not candidates:
                candidates = batch.results[lo:hi]
            best.append(min(candidates, key=lambda r: (r.makespan, r.name)))
        return best

    def map(self, func: Callable, items: Sequence[object]) -> List[object]:
        """Chunked (possibly parallel) map for non-algorithm sweep steps.

        ``func`` must be a module-level callable (picklable by reference) in
        pool mode.  Unlike :meth:`run_tasks`, exceptions propagate: sweep
        steps are deterministic code whose failure is a bug, not a result.

        Forks a pool only when the runner's resolved backend is the pool
        backend: a caller who chose ``backend="serial"`` (or ``"queue"``,
        whose distribution is task-shaped, not map-shaped) opted out of
        in-process forking, and ``map`` must honour that choice too.
        """
        from repro.runtime.backends import PoolBackend

        items = list(items)
        if not items:
            return []
        if not isinstance(self.backend, PoolBackend) or len(items) == 1:
            # A single item gains nothing from a pool; skip fork + pickling.
            return [func(item) for item in items]
        with ProcessPoolExecutor(max_workers=self.max_workers,
                                 mp_context=self._mp_context) as pool:
            return list(pool.map(func, items, chunksize=tasks_per_chunk(
                len(items), self.max_workers)))

    def clear_cache(self) -> None:
        """Drop every in-memory cached result (the persistent store is kept)."""
        self._cache.clear()

    # ------------------------------------------------------------------
    # result shaping: the one place an outcome becomes a result
    # ------------------------------------------------------------------
    def _finalise(self, task: BatchTask, status: str, payload: object,
                  elapsed: Optional[float]) -> AlgorithmResult:
        """The result of one backend outcome (see :class:`ExecutionBackend`).

        An ``"ok"`` outcome that this process timed (``elapsed`` is not
        ``None``) past the runner's ``timeout`` becomes a timeout sentinel
        after the fact: an in-process task cannot be interrupted.
        """
        if status == "ok" and (self.timeout is None or elapsed is None
                               or elapsed <= self.timeout):
            result = payload  # type: ignore[assignment]
            # A pool worker returns a copy of the instance: share the task's
            # own, which the store leaves out of the payload.
            got, own = result.schedule.instance, task.instance
            if got is not own and instance_fingerprint(got) == instance_fingerprint(own):
                result.schedule.instance = own
            return result
        if status == "error":
            self.stats["errors"] += 1
            message, tb = payload  # type: ignore[misc]
            return self._sentinel(task, error=message, traceback_text=tb)
        self.stats["timeouts"] += 1
        return self._sentinel(task, timeout=True)

    def _sentinel(self, task: BatchTask, *, error: Optional[str] = None,
                  traceback_text: Optional[str] = None,
                  timeout: bool = False) -> AlgorithmResult:
        """A failure placeholder that can never win a portfolio comparison."""
        meta: Dict[str, object] = {"instance": task.instance.name,
                                   "kwargs": task.kwargs_dict()}
        if error is not None:
            meta["error"] = error
            meta["traceback"] = traceback_text
        if timeout:
            meta["timeout"] = True
            meta["timeout_seconds"] = self.timeout
        return AlgorithmResult(
            name=task.algorithm,
            schedule=Schedule(task.instance),
            makespan=float("inf"),
            runtime_seconds=0.0,
            guarantee=None,
            meta=meta,
        )


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # non-Linux fallback
        return max(1, os.cpu_count() or 1)
