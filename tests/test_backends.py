"""Backend conformance: every execution backend honours the same contract.

The promise of the backend split is that ``BatchRunner`` semantics are
backend-independent: identical results and alignment, one yield per task,
error/timeout capture into sentinels, and prompt abandonment on early
stream close — whether tasks run in-process, on a process pool, or
through the distributed SQLite work queue.  The suite below runs the same
assertions against all three.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.algorithms.base import AlgorithmResult
from repro.core.bounds import greedy_upper_bound
from repro.core.instance import Instance
from repro.generators import uniform_instance
from repro.runtime import (
    BACKENDS,
    BatchRunner,
    BatchTask,
    PoolBackend,
    QueueBackend,
    SerialBackend,
    register_algorithm,
    unregister_algorithm,
)
from repro.runtime.backends import make_backend

BACKEND_NAMES = ("serial", "pool", "queue")

FAST_GRID = ["lpt-with-setups", "class-aware-greedy", "best-machine"]


def _greedy_result(name: str, instance: Instance) -> AlgorithmResult:
    _, schedule = greedy_upper_bound(instance)
    return AlgorithmResult.from_schedule(name, schedule)


@pytest.fixture
def sleeper_algorithm():
    name = "test-backend-sleeper"

    @register_algorithm(name, tags=("test",))
    def _sleeper(instance: Instance, *, delay: float = 1.0) -> AlgorithmResult:
        time.sleep(delay)
        return _greedy_result(name, instance)

    yield name
    unregister_algorithm(name)


@pytest.fixture
def failing_algorithm():
    name = "test-backend-failer"

    @register_algorithm(name, tags=("test",))
    def _failer(instance: Instance) -> AlgorithmResult:
        raise ValueError("synthetic backend failure")

    yield name
    unregister_algorithm(name)


def make_runner(backend: str, tmp_path, **kwargs) -> BatchRunner:
    """A runner on the requested backend, 1-CPU-container friendly.

    The queue backend gets a store (the queue lives in the store file) and
    drains inline — the conformance contract must hold with no external
    workers at all.
    """
    if backend == "pool":
        kwargs.setdefault("max_workers", 2)
        kwargs.setdefault("chunk_size", 1)
        return BatchRunner(backend="pool", **kwargs)
    if backend == "queue":
        kwargs.setdefault("max_workers", 1)
        kwargs.setdefault("store", tmp_path / "conformance.sqlite")
        return BatchRunner(
            backend="queue",
            backend_options={"poll_s": 0.01, "stall_timeout_s": 60.0},
            **kwargs)
    kwargs.setdefault("max_workers", 1)
    return BatchRunner(backend="serial", **kwargs)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
class TestBackendConformance:
    def test_results_match_serial_reference(self, backend, tmp_path):
        instances = [uniform_instance(15, 3, 3, seed=s, integral=True)
                     for s in range(4)]
        reference = BatchRunner(max_workers=1, backend="serial",
                                cache=False).run(FAST_GRID, instances)
        batch = make_runner(backend, tmp_path).run(FAST_GRID, instances)
        assert not batch.failures()
        assert [r.makespan for r in batch.results] == \
            [r.makespan for r in reference.results]
        assert [r.name for r in batch.results] == \
            [r.name for r in reference.results]

    def test_run_iter_yields_each_task_exactly_once(self, backend, tmp_path):
        instances = [uniform_instance(12, 3, 3, seed=s, integral=True)
                     for s in range(5)]
        tasks = [BatchTask.make("class-aware-greedy", inst)
                 for inst in instances]
        runner = make_runner(backend, tmp_path)
        seen = {}
        for idx, result in runner.run_iter(tasks):
            assert idx not in seen, f"{backend} backend yielded index {idx} twice"
            seen[idx] = result
        assert sorted(seen) == list(range(len(tasks)))
        assert all(np.isfinite(r.makespan) for r in seen.values())

    def test_timeout_capture(self, backend, tmp_path, sleeper_algorithm):
        inst = uniform_instance(10, 2, 2, seed=0, integral=True)
        runner = make_runner(backend, tmp_path, timeout=0.2)
        result = runner.run_one(sleeper_algorithm, inst, delay=0.8)
        assert result.meta.get("timeout") is True
        assert result.makespan == float("inf")
        assert runner.stats["timeouts"] == 1

    def test_error_capture_spares_siblings(self, backend, tmp_path,
                                           failing_algorithm):
        inst = uniform_instance(10, 2, 2, seed=0, integral=True)
        runner = make_runner(backend, tmp_path)
        batch = runner.run([failing_algorithm, "class-aware-greedy"], [inst])
        failed, ok = batch.results
        assert "synthetic backend failure" in str(failed.meta["error"])
        assert failed.makespan == float("inf")
        assert np.isfinite(ok.makespan)
        assert runner.stats["errors"] == 1

    def test_early_close_abandons_promptly(self, backend, tmp_path,
                                           sleeper_algorithm):
        inst_fast = uniform_instance(12, 3, 3, seed=0, integral=True)
        inst_slow = uniform_instance(12, 3, 3, seed=1, integral=True)
        runner = make_runner(backend, tmp_path, cache=False)
        # Fast task first so every backend yields something before the
        # sleeper starts (serial/queue execute in submission order).
        tasks = [BatchTask.make("class-aware-greedy", inst_fast),
                 BatchTask.make(sleeper_algorithm, inst_slow, {"delay": 5.0})]
        t0 = time.perf_counter()
        for _idx, result in runner.run_iter(tasks):
            assert np.isfinite(result.makespan)
            break  # abandon the 5s sleeper
        elapsed = time.perf_counter() - t0
        assert elapsed < 3.0, f"early break blocked for {elapsed:.1f}s"

    def test_stats_accounting_matches(self, backend, tmp_path,
                                      failing_algorithm):
        instances = [uniform_instance(12, 3, 3, seed=s, integral=True)
                     for s in range(2)]
        runner = make_runner(backend, tmp_path)
        runner.run([failing_algorithm, "class-aware-greedy"], instances)
        assert runner.stats["tasks"] == 4
        assert runner.stats["errors"] == 2


class TestQueueBackendSpecifics:
    def test_queue_backend_requires_store(self):
        runner = BatchRunner(max_workers=1, backend="queue")
        inst = uniform_instance(10, 2, 2, seed=0, integral=True)
        with pytest.raises(RuntimeError, match="needs a persistent store"):
            runner.run_one("class-aware-greedy", inst)

    def test_queue_early_close_cancels_unclaimed_rows(self, tmp_path,
                                                      sleeper_algorithm):
        from repro.store.task_queue import TaskQueue

        store_path = tmp_path / "cancel.sqlite"
        runner = make_runner("queue", tmp_path, store=store_path, cache=False)
        inst = uniform_instance(12, 3, 3, seed=0, integral=True)
        tasks = [BatchTask.make("class-aware-greedy", inst),
                 BatchTask.make(sleeper_algorithm, inst, {"delay": 0.2}),
                 BatchTask.make("lpt-with-setups", inst)]
        for _idx, _result in runner.run_iter(tasks):
            break  # abandon the rest of the batch
        with TaskQueue(store_path) as queue:
            assert queue.counts()["queued"] == 0, \
                "early close left unclaimed rows for workers to burn on"

    def test_queue_results_are_persisted_once(self, tmp_path):
        """The queue backend persists through its drain loop; the runner
        must not write the same result a second time."""
        store_path = tmp_path / "once.sqlite"
        runner = make_runner("queue", tmp_path, store=store_path)
        instances = [uniform_instance(12, 3, 3, seed=s, integral=True)
                     for s in range(3)]
        runner.run(["class-aware-greedy"], instances)
        assert len(runner.store) == 3
        assert runner.stats["store_puts"] == 0  # backend persisted, not runner
        assert runner.store.stats_counters["puts"] == 3

    def test_orphaned_done_rows_are_recomputed(self, tmp_path):
        """A 'done' queue row whose store result vanished (eviction,
        version purge) must be requeued and recomputed, not waited on
        forever."""
        store_path = tmp_path / "orphan.sqlite"
        instances = [uniform_instance(12, 3, 3, seed=s, integral=True)
                     for s in range(2)]
        first = make_runner("queue", tmp_path, store=store_path)
        first.run(["class-aware-greedy"], instances)
        first.store.clear()  # simulate eviction / version purge
        fresh = make_runner("queue", tmp_path, store=store_path)
        batch = fresh.run(["class-aware-greedy"], instances)
        assert not batch.failures()
        assert len(fresh.store) == 2  # recomputed and re-published

    def test_inline_drain_probes_each_key_a_bounded_number_of_times(
            self, tmp_path, monkeypatch):
        """Per-task polling cost must not grow with the batch: re-probing
        every unresolved key on every poll costs about N^2/2 key probes
        per batch, the change cursor keeps it linear."""
        from repro.store import ResultStore
        from repro.store.task_queue import TaskQueue

        probed = {"keys": 0}

        def counting(method, arg):
            def wrapper(self, *args, **kwargs):
                keys = args[0] if args else kwargs.get(arg)
                probed["keys"] += len(keys) if keys is not None else 0
                return method(self, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(ResultStore, "prefetch",
                            counting(ResultStore.prefetch, "tasks"))
        monkeypatch.setattr(TaskQueue, "rows", counting(TaskQueue.rows, "keys"))
        instances = [uniform_instance(12, 3, 3, seed=s, integral=True)
                     for s in range(20)]
        runner = make_runner("queue", tmp_path)
        batch = runner.run(FAST_GRID, instances)
        n = len(batch.results)
        assert n == 60 and not batch.failures()
        assert probed["keys"] <= 3 * n, probed

    def test_inline_drain_commits_two_write_transactions_per_task(
            self, tmp_path, monkeypatch):
        """One to lease, one to publish and complete: reclaim and the
        submitter's polls only read, and the result and its ``done`` row
        commit together.  Every connection opened during the batch is
        traced; each write transaction starts with a BEGIN."""
        import sqlite3

        statements = []
        connect = sqlite3.connect

        def traced_connect(*args, **kwargs):
            conn = connect(*args, **kwargs)
            conn.set_trace_callback(statements.append)
            return conn

        monkeypatch.setattr(sqlite3, "connect", traced_connect)
        instances = [uniform_instance(12, 3, 3, seed=s, integral=True)
                     for s in range(10)]
        runner = make_runner("queue", tmp_path)
        batch = runner.run(FAST_GRID, instances)
        n = len(batch.results)
        assert n == 30 and not batch.failures()
        begins = sum(1 for sql in statements if sql.startswith("BEGIN"))
        assert begins <= 2 * n + 5, begins

    def test_fresh_runner_warm_from_queue_run(self, tmp_path):
        store_path = tmp_path / "warm.sqlite"
        instances = [uniform_instance(12, 3, 3, seed=s, integral=True)
                     for s in range(3)]
        make_runner("queue", tmp_path, store=store_path).run(
            ["class-aware-greedy"], instances)
        fresh = BatchRunner(max_workers=1, store=store_path)
        batch = fresh.run(["class-aware-greedy"], instances)
        assert not batch.failures()
        assert fresh.stats["store_hits"] == 3


    def test_vanished_row_is_reenqueued_not_waited_on(self, tmp_path):
        """A queue row cancelled by another submitter's early exit must be
        re-enqueued by a submitter still waiting on it, never waited on
        forever."""
        import threading

        from repro.runtime.worker import drain
        from repro.store import ResultStore
        from repro.store.task_queue import TaskQueue

        store_path = tmp_path / "vanish.sqlite"
        task = BatchTask.make("class-aware-greedy",
                              uniform_instance(12, 3, 3, seed=0, integral=True))
        key = task.cache_key()
        results = {}

        def consume():
            # Built inside the thread: SQLite connections are thread-bound.
            # inline=False makes the submitter a pure coordinator, so the
            # row sits 'queued' until we interfere and then drain it.
            runner = BatchRunner(
                max_workers=1, store=store_path, backend="queue",
                backend_options={"inline": False, "poll_s": 0.02,
                                 "stall_timeout_s": 30.0})
            results.update(runner.run_iter([task]))
            runner.store.close()

        consumer = threading.Thread(target=consume)
        consumer.start()
        try:
            with TaskQueue(store_path) as queue:
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline and not queue.rows([key]):
                    time.sleep(0.01)
                assert queue.rows([key]), "the submitter never enqueued"
                # Simulate a sibling submitter cancelling the row.
                queue.cancel_queued([key])
                while time.monotonic() < deadline and not queue.rows([key]):
                    time.sleep(0.01)
                assert queue.rows([key]), "the vanished row was not re-enqueued"
            with ResultStore(store_path) as store, \
                    TaskQueue(store) as queue:
                drain(store, queue, "helper", idle_exit=1.0, poll_s=0.01)
        finally:
            consumer.join(timeout=30)
        assert not consumer.is_alive(), "the submitter hung on the lost row"
        assert np.isfinite(results[0].makespan)


def _pid(_item):
    return os.getpid()


class TestMapBackend:
    def test_map_honours_serial_backend(self):
        """backend='serial' opts out of forking for map() too."""
        runner = BatchRunner(max_workers=4, backend="serial")
        assert set(runner.map(_pid, [1, 2, 3, 4])) == {os.getpid()}

    def test_map_forks_under_pool_backend(self):
        runner = BatchRunner(max_workers=2, backend="pool")
        pids = set(runner.map(_pid, list(range(8))))
        assert os.getpid() not in pids  # every chunk ran on a pool worker


class TestBackendSelection:
    def test_registry_names(self):
        assert set(BACKENDS) == {"serial", "pool", "queue"}

    def test_none_picks_pool_iff_several_workers(self):
        assert isinstance(BatchRunner(max_workers=1).backend, SerialBackend)
        assert isinstance(BatchRunner(max_workers=2).backend, PoolBackend)
        assert isinstance(BatchRunner(max_workers=1, backend="pool").backend,
                          PoolBackend)
        assert isinstance(BatchRunner(max_workers=2, backend="serial").backend,
                          SerialBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            BatchRunner(backend="no-such-backend")

    def test_backend_options_reach_the_backend(self, tmp_path):
        runner = BatchRunner(
            max_workers=1, store=tmp_path / "opts.sqlite", backend="queue",
            backend_options={"lease_s": 7.5, "inline": False})
        assert isinstance(runner.backend, QueueBackend)
        assert runner.backend.lease_s == 7.5
        assert runner.backend.inline is False

    def test_instance_spec_is_rebound(self):
        runner_a = BatchRunner(max_workers=1)
        backend = SerialBackend(runner_a)
        runner_b = BatchRunner(max_workers=1, backend=backend)
        assert runner_b.backend is backend
        assert backend.runner is runner_b

    def test_instance_spec_rejects_options(self):
        runner = BatchRunner(max_workers=1)
        with pytest.raises(ValueError, match="cannot be combined"):
            make_backend(SerialBackend(runner), runner, {"poll_s": 1.0})
