"""BatchRunner edge cases: empty grids, caching, timeouts, errors, portfolio.

The pool tests force ``backend="pool"`` so the dispatch path is
exercised even on single-CPU hosts (where the runner would otherwise
degrade to in-process execution).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import time

import numpy as np
import pytest

from repro.algorithms.base import AlgorithmResult
from repro.core.bounds import greedy_upper_bound
from repro.core.instance import Instance
from repro.generators import uniform_instance, unrelated_instance
from repro.runtime import (
    BatchRunner,
    BatchTask,
    SerialBackend,
    algorithms_for,
    get_algorithm,
    instance_fingerprint,
    register_algorithm,
    unregister_algorithm,
)
from repro.store import ResultStore

FAST_GRID = ["lpt-with-setups", "class-aware-greedy", "best-machine"]


def _greedy_result(name: str, instance: Instance) -> AlgorithmResult:
    _, schedule = greedy_upper_bound(instance)
    return AlgorithmResult.from_schedule(name, schedule)


@pytest.fixture
def sleeper_algorithm():
    """A temporarily registered algorithm that stalls before answering."""
    name = "test-sleeper"

    @register_algorithm(name, tags=("test",))
    def _sleeper(instance: Instance, *, delay: float = 1.0) -> AlgorithmResult:
        time.sleep(delay)
        return _greedy_result(name, instance)

    yield name
    unregister_algorithm(name)


@pytest.fixture
def dying_algorithm():
    """A temporarily registered algorithm whose worker process dies."""
    name = "test-dier"

    @register_algorithm(name, tags=("test",))
    def _dier(instance: Instance) -> AlgorithmResult:
        import os
        os._exit(9)

    yield name
    unregister_algorithm(name)


@pytest.fixture
def failing_algorithm():
    """A temporarily registered algorithm that always raises."""
    name = "test-failer"

    @register_algorithm(name, tags=("test",))
    def _failer(instance: Instance) -> AlgorithmResult:
        raise ValueError("synthetic failure")

    yield name
    unregister_algorithm(name)


class TestEmptyAndTrivialGrids:
    def test_empty_grid(self):
        runner = BatchRunner()
        batch = runner.run([], [])
        assert len(batch) == 0
        assert batch.results == []
        assert batch.failures() == []

    def test_empty_tasks_and_map(self):
        runner = BatchRunner()
        assert runner.run_tasks([]).results == []
        assert runner.map(len, []) == []
        assert runner.portfolio([]) == []

    def test_algorithms_without_instances(self):
        batch = BatchRunner().run(FAST_GRID, [])
        assert len(batch) == 0


class TestDispatchModes:
    def test_single_worker_runs_in_process(self):
        runner = BatchRunner(max_workers=1)
        assert isinstance(runner.backend, SerialBackend)

    def test_single_worker_matches_pool(self):
        instances = [uniform_instance(15, 3, 3, seed=s, integral=True)
                     for s in range(4)]
        serial = BatchRunner(max_workers=1).run(FAST_GRID, instances)
        pooled = BatchRunner(max_workers=2, backend="pool").run(FAST_GRID,
                                                                instances)
        assert [t.algorithm for t in serial.tasks] == [t.algorithm for t in pooled.tasks]
        assert [r.makespan for r in serial.results] == [r.makespan for r in pooled.results]
        assert not serial.failures() and not pooled.failures()

    def test_chunked_dispatch_preserves_task_order(self):
        instances = [uniform_instance(12, 3, 3, seed=s, integral=True)
                     for s in range(5)]
        runner = BatchRunner(max_workers=2, backend="pool")
        batch = runner.run(FAST_GRID, instances)
        reference = BatchRunner(max_workers=1).run(FAST_GRID, instances)
        assert [r.makespan for r in batch.results] == [r.makespan
                                                       for r in reference.results]

    def test_map_matches_serial(self):
        runner = BatchRunner(max_workers=2, backend="pool")
        assert runner.map(abs, [-3, 1, -2, 0]) == [3, 1, 2, 0]


class TestTimeouts:
    def test_worker_timeout_yields_sentinel(self, sleeper_algorithm):
        inst = uniform_instance(10, 2, 2, seed=0, integral=True)
        runner = BatchRunner(max_workers=2, backend="pool", timeout=0.2)
        result = runner.run_one(sleeper_algorithm, inst, delay=1.2)
        assert result.meta.get("timeout") is True
        assert result.makespan == float("inf")
        assert runner.stats["timeouts"] == 1
        # The stuck worker was killed, not left running for interpreter
        # exit to wait on.
        assert multiprocessing.active_children() == []

    def test_timeout_does_not_poison_fast_tasks(self, sleeper_algorithm):
        inst = uniform_instance(10, 2, 2, seed=0, integral=True)
        runner = BatchRunner(max_workers=2, backend="pool", timeout=0.5)
        batch = runner.run_tasks([
            BatchTask.make("class-aware-greedy", inst),
            BatchTask.make(sleeper_algorithm, inst, {"delay": 1.5}),
        ])
        fast, slow = batch.results
        assert not fast.meta.get("timeout") and np.isfinite(fast.makespan)
        assert slow.meta.get("timeout") is True
        assert batch.failures() == [slow]

    def test_queued_task_not_charged_for_stuck_sibling(self, sleeper_algorithm):
        # One worker: the second task is queued behind the stuck one; it
        # must get a fresh budget on a fresh worker.
        inst = uniform_instance(10, 2, 2, seed=0, integral=True)
        runner = BatchRunner(max_workers=1, backend="pool", timeout=0.4)
        batch = runner.run_tasks([
            BatchTask.make(sleeper_algorithm, inst, {"delay": 2.0}),
            BatchTask.make("class-aware-greedy", inst),
        ])
        stuck, queued = batch.results
        assert stuck.meta.get("timeout") is True
        assert not queued.meta.get("timeout") and np.isfinite(queued.makespan)

    def test_stuck_task_does_not_hold_back_its_siblings(self,
                                                        sleeper_algorithm):
        """Each task's deadline runs from its own submission: while one
        worker sits on a stuck task, the other streams the short ones,
        and the stuck task's timeout kills no healthy sibling."""
        tasks = [BatchTask.make(sleeper_algorithm,
                                uniform_instance(10, 2, 2, seed=s,
                                                 integral=True),
                                {"delay": 3.0 if s == 0 else 0.1})
                 for s in range(9)]
        runner = BatchRunner(max_workers=2, backend="pool", timeout=1.5)
        order = list(runner.run_iter(tasks))
        by_idx = dict(order)
        assert sorted(by_idx) == list(range(9))
        assert by_idx[0].meta.get("timeout") is True
        for idx in range(1, 9):
            assert not by_idx[idx].meta.get("timeout")
            assert "error" not in by_idx[idx].meta
            assert np.isfinite(by_idx[idx].makespan)
        sentinel_at = [idx for idx, _ in order].index(0)
        assert sentinel_at >= 4, [idx for idx, _ in order]

    def test_serial_timeout_is_post_hoc(self, sleeper_algorithm):
        inst = uniform_instance(10, 2, 2, seed=0, integral=True)
        runner = BatchRunner(max_workers=1, timeout=0.05)
        result = runner.run_one(sleeper_algorithm, inst, delay=0.2)
        assert result.meta.get("timeout") is True
        assert result.makespan == float("inf")

    @pytest.mark.parametrize("bad", [0, 0.0, -1.0, float("nan"),
                                     float("inf"), True, "5"])
    def test_bad_timeout_is_rejected_naming_the_field(self, bad):
        """``nan`` would silently disable the limit and ``-1.0`` would
        turn every task into a timeout sentinel: both fail up front."""
        with pytest.raises(ValueError, match="timeout"):
            BatchRunner(max_workers=1, timeout=bad)


class TestErrorCapture:
    def test_error_becomes_sentinel_result(self, failing_algorithm):
        inst = uniform_instance(10, 2, 2, seed=0, integral=True)
        runner = BatchRunner(max_workers=1)
        result = runner.run_one(failing_algorithm, inst)
        assert "synthetic failure" in str(result.meta["error"])
        assert result.makespan == float("inf")
        assert runner.stats["errors"] == 1

    def test_error_in_pool_mode(self, failing_algorithm):
        inst = uniform_instance(10, 2, 2, seed=0, integral=True)
        runner = BatchRunner(max_workers=2, backend="pool")
        batch = runner.run([failing_algorithm, "class-aware-greedy"], [inst])
        failed, ok = batch.results
        assert "ValueError" in str(failed.meta["error"])
        assert np.isfinite(ok.makespan)

    @staticmethod
    def _check_worker_death(dying_algorithm, timeout):
        # A dying worker breaks the whole pool; the culprit must come back
        # as an error sentinel while collateral sibling tasks are retried,
        # and only the culprits count as errors.
        instances = [uniform_instance(12, 3, 3, seed=s, integral=True)
                     for s in range(3)]
        runner = BatchRunner(max_workers=2, backend="pool", timeout=timeout)
        batch = runner.run([dying_algorithm, "class-aware-greedy"], instances)
        died = batch.by_algorithm(dying_algorithm)
        ok = batch.by_algorithm("class-aware-greedy")
        assert all("worker died" in str(r.meta.get("error")) for r in died)
        assert all(np.isfinite(r.makespan) for r in ok)
        assert runner.stats["errors"] == 3

    def test_worker_death_is_captured_and_siblings_recover(self, dying_algorithm):
        self._check_worker_death(dying_algorithm, timeout=None)

    def test_worker_death_is_captured_with_a_timeout(self, dying_algorithm):
        self._check_worker_death(dying_algorithm, timeout=60.0)

    def test_an_error_that_reads_like_a_worker_death_runs_once(self,
                                                                tmp_path):
        """Only a dead worker process is a death: an algorithm's own
        exception is its error, whatever its text says, and is not
        retried.  Each run appends a line to a file."""
        name = "test-died-in-text"
        log = tmp_path / "runs.log"

        @register_algorithm(name, tags=("test",))
        def _raiser(instance: Instance, *, log: str) -> AlgorithmResult:
            with open(log, "a") as fh:
                fh.write("run\n")
            raise RuntimeError("worker died of boredom")

        try:
            runner = BatchRunner(max_workers=2, backend="pool")
            result = runner.run_one(
                name, uniform_instance(10, 2, 2, seed=0, integral=True),
                log=str(log))
        finally:
            unregister_algorithm(name)
        assert log.read_text().splitlines() == ["run"]
        assert result.meta["error"] == "RuntimeError: worker died of boredom"
        assert "_raiser" in result.meta["traceback"]
        assert result.makespan == float("inf")
        assert runner.stats["errors"] == 1

    def test_unknown_algorithm_is_captured_not_raised(self):
        inst = uniform_instance(10, 2, 2, seed=0, integral=True)
        result = BatchRunner(max_workers=1).run_one("no-such-algorithm", inst)
        assert "no-such-algorithm" in str(result.meta["error"])


class TestCache:
    def test_cache_hit_returns_identical_result(self):
        inst = uniform_instance(15, 3, 3, seed=1, integral=True)
        runner = BatchRunner(max_workers=1)
        first = runner.run_one("lpt-with-setups", inst)
        second = runner.run_one("lpt-with-setups", inst)
        assert second is first
        assert runner.stats["cache_hits"] == 1

    def test_cache_keys_on_content_not_name(self):
        base = uniform_instance(15, 3, 3, seed=1, integral=True)
        renamed = Instance(
            environment=base.environment, processing=base.processing,
            setups=base.setups, job_classes=base.job_classes, speeds=base.speeds,
            job_sizes=base.job_sizes, setup_sizes=base.setup_sizes,
            name="same-content-other-name")
        assert instance_fingerprint(base) == instance_fingerprint(renamed)
        runner = BatchRunner(max_workers=1)
        first = runner.run_one("class-aware-greedy", base)
        second = runner.run_one("class-aware-greedy", renamed)
        assert second is first

    def test_kwargs_change_misses_cache(self):
        inst = uniform_instance(15, 3, 3, seed=1, integral=True)
        runner = BatchRunner(max_workers=1)
        a = runner.run_one("ptas-uniform", inst, epsilon=0.5)
        b = runner.run_one("ptas-uniform", inst, epsilon=0.4)
        assert a is not b
        assert runner.stats["cache_hits"] == 0

    def test_the_cache_has_no_off_switch(self):
        with pytest.raises(TypeError, match="cache"):
            BatchRunner(max_workers=1, cache=False)

    def test_failures_are_not_cached(self, failing_algorithm):
        inst = uniform_instance(10, 2, 2, seed=0, integral=True)
        runner = BatchRunner(max_workers=1)
        a = runner.run_one(failing_algorithm, inst)
        b = runner.run_one(failing_algorithm, inst)
        assert a is not b
        assert runner.stats["cache_hits"] == 0

    def test_clear_cache(self):
        inst = uniform_instance(15, 3, 3, seed=1, integral=True)
        runner = BatchRunner(max_workers=1)
        a = runner.run_one("class-aware-greedy", inst)
        runner.clear_cache()
        b = runner.run_one("class-aware-greedy", inst)
        assert a is not b

    def test_cache_keys_match_earlier_versions(self):
        """Golden keys: stores written by earlier versions keep hitting."""
        uniform = uniform_instance(20, 4, 4, seed=5)
        assert BatchTask.make("lpt-with-setups", uniform).cache_key() == (
            "ed8ebe346a2c9c919ea6d4b34e6ec084c3cd96168d03e340a1683f99aa68c78c")
        kwargs = {"epsilon": 0.5, "w": np.arange(3, dtype=np.int32),
                  "d": {"a": [1, 2.5]}}
        assert BatchTask.make("ptas-uniform", uniform, kwargs).cache_key() == (
            "76b9f68156b2c4f24f1137a31389c39385f3cd9fb7b07088deb3999b1d14e4bf")
        unrelated = unrelated_instance(12, 3, 4, seed=7)  # no size vectors
        assert BatchTask.make("class-aware-greedy", unrelated).cache_key() == (
            "f690a8eb7538c8eeec5e85cf47050ad165068f02a1785820bca75345d992d936")

    def test_cache_key_is_computed_once_per_task(self):
        task = BatchTask.make("lpt-with-setups", uniform_instance(8, 2, 2, seed=0))
        assert task.cache_key() is task.cache_key()


class TestPortfolio:
    def test_portfolio_tie_breaking_is_deterministic(self):
        # On one machine every complete schedule has the same makespan, so the
        # portfolio winner is decided purely by the (makespan, name) tie-break.
        inst = uniform_instance(10, 1, 3, seed=4, integral=True)
        names = sorted(["lpt-with-setups", "class-aware-greedy", "best-machine"])
        winners = {
            BatchRunner(max_workers=1).portfolio(
                [inst], algorithms=names)[0].name
            for _ in range(3)
        }
        assert winners == {names[0]}

    def test_portfolio_picks_best_per_instance(self):
        instances = [uniform_instance(20, 3, 4, seed=s, integral=True)
                     for s in range(3)]
        runner = BatchRunner(max_workers=1)
        best = runner.portfolio(instances, algorithms=FAST_GRID)
        grid = runner.run(FAST_GRID, instances)
        for idx, winner in enumerate(best):
            for name in FAST_GRID:
                assert winner.makespan <= grid.by_algorithm(name)[idx].makespan + 1e-9

    def test_portfolio_uses_capability_lookup(self):
        inst = uniform_instance(12, 3, 3, seed=2, integral=True)
        applicable = {spec.name for spec in algorithms_for(inst)}
        best = BatchRunner(max_workers=1).portfolio([inst])
        assert best[0].name in applicable

    def test_portfolio_ignores_failed_runs(self, failing_algorithm):
        inst = uniform_instance(12, 3, 3, seed=2, integral=True)
        best = BatchRunner(max_workers=1).portfolio(
            [inst], algorithms=[failing_algorithm, "class-aware-greedy"])
        assert best[0].name == "class-aware-greedy"
        assert np.isfinite(best[0].makespan)


class TestStreaming:
    def test_run_iter_matches_run_tasks(self):
        instances = [uniform_instance(15, 3, 3, seed=s, integral=True)
                     for s in range(4)]
        tasks = [BatchTask.make(name, inst)
                 for inst in instances for name in FAST_GRID]
        runner = BatchRunner(max_workers=1)
        streamed: dict = {}
        for idx, result in runner.run_iter(tasks):
            assert idx not in streamed, "run_iter yielded an index twice"
            streamed[idx] = result
        assert sorted(streamed) == list(range(len(tasks)))
        reference = BatchRunner(max_workers=1).run_tasks(tasks)
        assert [streamed[i].makespan for i in range(len(tasks))] == \
            [r.makespan for r in reference.results]

    def test_run_iter_yields_warm_results_first(self, sleeper_algorithm):
        """Cache hits stream out before any cold task is executed."""
        inst_warm = uniform_instance(12, 3, 3, seed=0, integral=True)
        inst_cold = uniform_instance(12, 3, 3, seed=1, integral=True)
        runner = BatchRunner(max_workers=1)
        runner.run_one("class-aware-greedy", inst_warm)  # prime the cache
        tasks = [BatchTask.make(sleeper_algorithm, inst_cold, {"delay": 0.3}),
                 BatchTask.make("class-aware-greedy", inst_warm)]
        order = [idx for idx, _ in runner.run_iter(tasks)]
        assert order == [1, 0]  # warm second task first, cold sleeper last

    def test_run_iter_store_hits_stream_before_pool_work(self, tmp_path,
                                                         sleeper_algorithm):
        """A fresh runner streams store-warm keys before its cold tasks."""
        store_path = tmp_path / "stream.sqlite"
        inst_warm = uniform_instance(12, 3, 3, seed=0, integral=True)
        inst_cold = uniform_instance(12, 3, 3, seed=1, integral=True)
        BatchRunner(max_workers=1, store=store_path).run_one(
            "class-aware-greedy", inst_warm)
        fresh = BatchRunner(max_workers=1, store=store_path)
        tasks = [BatchTask.make(sleeper_algorithm, inst_cold, {"delay": 0.3}),
                 BatchTask.make("class-aware-greedy", inst_warm)]
        t0 = time.perf_counter()
        first_idx, _ = next(fresh.run_iter(tasks))
        first_latency = time.perf_counter() - t0
        assert first_idx == 1  # the store-warm task
        assert fresh.stats["store_hits"] == 1
        assert first_latency < 0.25  # long before the 0.3s sleeper could finish

    def test_run_iter_streams_errors_as_sentinels(self, failing_algorithm):
        inst = uniform_instance(12, 3, 3, seed=2, integral=True)
        runner = BatchRunner(max_workers=1)
        pairs = list(runner.run_iter([
            BatchTask.make(failing_algorithm, inst),
            BatchTask.make("class-aware-greedy", inst),
        ]))
        assert len(pairs) == 2
        by_idx = dict(pairs)
        assert "synthetic failure" in str(by_idx[0].meta["error"])
        assert np.isfinite(by_idx[1].makespan)

    def test_run_iter_pool_mode_yields_every_task(self):
        instances = [uniform_instance(12, 3, 3, seed=s, integral=True)
                     for s in range(5)]
        tasks = [BatchTask.make("class-aware-greedy", inst) for inst in instances]
        runner = BatchRunner(max_workers=2, backend="pool")
        pairs = list(runner.run_iter(tasks))
        assert sorted(idx for idx, _ in pairs) == list(range(5))
        assert all(np.isfinite(r.makespan) for _, r in pairs)

    def test_run_iter_pool_worker_death_still_yields_all(self, dying_algorithm):
        instances = [uniform_instance(12, 3, 3, seed=s, integral=True)
                     for s in range(3)]
        tasks = [BatchTask.make(name, inst)
                 for inst in instances
                 for name in (dying_algorithm, "class-aware-greedy")]
        runner = BatchRunner(max_workers=2, backend="pool")
        pairs = dict(runner.run_iter(tasks))
        assert sorted(pairs) == list(range(len(tasks)))
        for idx, task in enumerate(tasks):
            if task.algorithm == dying_algorithm:
                assert "worker died" in str(pairs[idx].meta.get("error"))
            else:
                assert np.isfinite(pairs[idx].makespan)

    @pytest.mark.parametrize("timeout", [None, 60.0])
    def test_run_iter_pool_breaking_during_submission_yields_all(
            self, monkeypatch, timeout):
        """A worker dying while chunks are still being submitted makes
        ``submit`` raise ``BrokenProcessPool``; the unsent tasks must be
        recovered like in-flight casualties, not escape ``run_iter``."""
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        real_submit = ProcessPoolExecutor.submit

        def submit_once(pool, *args, **kwargs):
            if getattr(pool, "_test_submitted", False):
                raise BrokenProcessPool("a worker died during submission")
            pool._test_submitted = True
            return real_submit(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit_once)
        tasks = [BatchTask.make("class-aware-greedy",
                                uniform_instance(12, 3, 3, seed=s, integral=True))
                 for s in range(4)]
        runner = BatchRunner(max_workers=2, backend="pool", timeout=timeout)
        indices = [idx for idx, result in runner.run_iter(tasks)
                   if np.isfinite(result.makespan)]
        assert sorted(indices) == list(range(len(tasks)))

    def test_run_iter_pool_future_orphaned_by_the_break_is_a_casualty(
            self, monkeypatch, dying_algorithm):
        """Before CPython 3.12, ``submit`` racing the manager thread's
        ``terminate_broken`` can return a future the broken pool never
        completes.  Simulated: the first pool's later submits return such
        futures once the dier has broken it.  They must be recovered like
        any casualty, not waited on forever."""
        from concurrent.futures import Future, ProcessPoolExecutor

        real_submit = ProcessPoolExecutor.submit
        first_pool = []

        def racing_submit(pool, *args, **kwargs):
            if not first_pool:
                first_pool.append(pool)
                future = real_submit(pool, *args, **kwargs)
                future.exception()  # the dier broke the pool
                pool._executor_manager_thread.join()
                return future
            if pool is first_pool[0]:
                return Future()  # accepted after the pending futures failed
            return real_submit(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", racing_submit)
        inst = uniform_instance(12, 3, 3, seed=0, integral=True)
        tasks = [BatchTask.make(dying_algorithm, inst),
                 BatchTask.make("class-aware-greedy", inst),
                 BatchTask.make("lpt-with-setups", inst)]
        runner = BatchRunner(max_workers=2, backend="pool")
        pairs = dict(runner.run_iter(tasks))
        assert sorted(pairs) == [0, 1, 2]
        assert "worker died" in str(pairs[0].meta.get("error"))
        assert np.isfinite(pairs[1].makespan)
        assert np.isfinite(pairs[2].makespan)

    def test_early_close_does_not_block_on_remaining_batch(self,
                                                           sleeper_algorithm):
        """Breaking out of run_iter abandons in-flight pool work promptly."""
        inst_fast = uniform_instance(12, 3, 3, seed=0, integral=True)
        inst_slow = uniform_instance(12, 3, 3, seed=1, integral=True)
        runner = BatchRunner(max_workers=1, backend="pool")
        tasks = [BatchTask.make("class-aware-greedy", inst_fast),
                 BatchTask.make(sleeper_algorithm, inst_slow, {"delay": 5.0})]
        t0 = time.perf_counter()
        for _idx, result in runner.run_iter(tasks):
            assert np.isfinite(result.makespan)
            break  # abandon the 5s sleeper
        elapsed = time.perf_counter() - t0
        assert elapsed < 3.0, f"early break blocked for {elapsed:.1f}s"

    def test_closing_the_stream_stores_every_yielded_result(self, tmp_path):
        """Cheap results are grouped; closing the generator commits them."""
        path = tmp_path / "grouped.sqlite"
        runner = BatchRunner(max_workers=1, store=path)
        tasks = [BatchTask.make("class-aware-greedy",
                                uniform_instance(12, 3, 3, seed=s, integral=True))
                 for s in range(6)]
        seen = []
        with contextlib.closing(runner.run_iter(tasks)) as stream:
            for idx, _result in stream:
                seen.append(tasks[idx].cache_key())
                if len(seen) == 3:
                    break
        with ResultStore(path) as other:
            assert {record.key for record in other.records()} == set(seen)
        assert runner.stats["store_puts"] == 3

    def test_slow_result_is_stored_before_it_is_yielded(self, tmp_path,
                                                         sleeper_algorithm):
        path = tmp_path / "durable.sqlite"
        runner = BatchRunner(max_workers=1, store=path)
        inst = uniform_instance(12, 3, 3, seed=4, integral=True)
        tasks = [BatchTask.make("class-aware-greedy", inst),
                 BatchTask.make(sleeper_algorithm, inst, {"delay": 0.15}),
                 BatchTask.make("lpt-with-setups", inst)]
        with ResultStore(path) as other:
            for idx, _result in runner.run_iter(tasks):
                if idx == 1:
                    assert other.contains(tasks[1])
                    assert other.contains(tasks[0])  # committed in its group
            assert len(other) == 3

    def test_failed_results_never_reach_the_store(self, tmp_path,
                                                  failing_algorithm):
        store_path = tmp_path / "nofail.sqlite"
        runner = BatchRunner(max_workers=1, store=store_path)
        inst = uniform_instance(12, 3, 3, seed=3, integral=True)
        runner.run_one(failing_algorithm, inst)
        runner.run_one("class-aware-greedy", inst)
        assert len(runner.store) == 1
        assert runner.stats["store_puts"] == 1


class TestRegistrySurface:
    def test_spec_name_matches_result_name(self):
        inst = uniform_instance(12, 3, 3, seed=3, integral=True)
        for name in ("lpt-with-setups", "class-aware-greedy", "best-machine"):
            spec = get_algorithm(name)
            assert spec.run(inst).name == name

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_algorithm("lpt-with-setups")(lambda inst: None)

    def test_unknown_predicate_rejected(self):
        with pytest.raises(ValueError, match="unknown Instance predicate"):
            register_algorithm("test-bad-predicate",
                               requires=("no_such_predicate",))(lambda inst: None)

    def test_exact_solvers_hidden_from_capability_lookup(self):
        inst = uniform_instance(12, 3, 3, seed=3, integral=True)
        default = {spec.name for spec in algorithms_for(inst)}
        widened = {spec.name for spec in algorithms_for(inst, include_exact=True)}
        assert "milp-optimal" not in default
        assert {"milp-optimal", "brute-force-optimal"} <= widened
