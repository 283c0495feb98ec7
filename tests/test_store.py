"""The persistent result store: durability, eviction, self-healing, CLI.

The durability tests are the contract that matters: results written by one
``BatchRunner`` must be cache hits in a *fresh process* (that is the whole
point of the store), a corrupted or old-schema file must be rebuilt rather
than crash the runner, a file that is merely busy must never be rebuilt,
and the eviction policy must actually bound the file.
"""

from __future__ import annotations

import os
import pickle
import re
import sqlite3
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import AlgorithmResult
from repro.core.bounds import greedy_upper_bound
from repro.generators import uniform_instance
from repro.runtime import BatchRunner, BatchTask
from repro.store import SCHEMA_VERSION, CostModel, ResultStore, TaskQueue
from repro.store import result_store
from repro.store.cli import main as store_cli


def _task(seed: int = 0, algorithm: str = "class-aware-greedy",
          n: int = 15) -> BatchTask:
    return BatchTask.make(algorithm, uniform_instance(n, 3, 3, seed=seed,
                                                      integral=True))


def _result_for(task: BatchTask, runtime: float = 0.01) -> AlgorithmResult:
    _, schedule = greedy_upper_bound(task.instance)
    return AlgorithmResult.from_schedule(task.algorithm, schedule,
                                         runtime=runtime)


class TestStoreBasics:
    def test_put_get_roundtrip(self, tmp_path):
        task = _task()
        result = _result_for(task)
        with ResultStore(tmp_path / "s.sqlite") as store:
            assert store.get(task) is None
            assert not store.contains(task)
            store.put(task, result)
            assert store.contains(task)
            fetched = store.get(task)
        assert fetched is not None
        assert fetched.makespan == result.makespan
        assert fetched.name == result.name

    def test_prefetch_returns_warm_subset(self, tmp_path):
        tasks = [_task(seed=s) for s in range(4)]
        with ResultStore(tmp_path / "s.sqlite") as store:
            for task in tasks[:2]:
                store.put(task, _result_for(task))
            warm = store.prefetch(tasks)
        assert set(warm) == {t.cache_key() for t in tasks[:2]}

    def test_len_stats_and_records(self, tmp_path):
        tasks = [_task(seed=s) for s in range(3)]
        with ResultStore(tmp_path / "s.sqlite") as store:
            for task in tasks:
                store.put(task, _result_for(task, runtime=0.5))
            assert len(store) == 3
            stats = store.stats()
            assert stats["entries"] == 3
            assert stats["per_algorithm"]["class-aware-greedy"]["entries"] == 3
            records = list(store.records())
            assert len(records) == 3
            assert all(r.environment == "uniform" for r in records)
            assert all(r.wall_seconds == 0.5 for r in records)
            assert all(r.num_jobs == 15 for r in records)

    def test_export_is_json_lines(self, tmp_path):
        import json

        task = _task()
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put(task, _result_for(task))
            lines = store.export().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["algorithm"] == "class-aware-greedy"
        assert payload["n"] == 15


class TestPutMany:
    def test_stores_every_pair_and_counts_each_put(self, tmp_path):
        tasks = [_task(seed=s) for s in range(4)]
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put_many([(t, _result_for(t)) for t in tasks])
            assert not store._conn.in_transaction
            assert store.stats_counters["puts"] == 4
            assert set(store.prefetch(tasks)) == {t.cache_key() for t in tasks}

    def test_joins_an_open_transaction(self, tmp_path):
        tasks = [_task(seed=s) for s in range(2)]
        with ResultStore(tmp_path / "s.sqlite") as store:
            store._conn.execute("BEGIN IMMEDIATE")
            store.put_many([(t, _result_for(t)) for t in tasks])
            assert store._conn.in_transaction  # not committed by put_many
            store._conn.execute("ROLLBACK")
            assert len(store) == 0

    def test_evicts_after_the_commit(self, tmp_path):
        tasks = [_task(seed=s) for s in range(5)]
        results = [_result_for(t) for t in tasks]
        row_bytes = len(pickle.dumps(results[0], pickle.HIGHEST_PROTOCOL))
        with ResultStore(tmp_path / "s.sqlite",
                         max_bytes=2 * row_bytes + 10) as store:
            store.put_many(zip(tasks, results))
            assert len(store) == 2
            assert store.stats_counters["evictions"] == 3

    def test_a_failing_put_rolls_back_the_group(self, tmp_path):
        tasks = [_task(seed=s) for s in range(2)]
        with ResultStore(tmp_path / "s.sqlite") as store:
            broken = BatchTask.make("class-aware-greedy", None)  # no instance
            with pytest.raises(AttributeError):
                store.put_many([(tasks[0], _result_for(tasks[0])),
                                (broken, _result_for(tasks[1]))])
            assert not store._conn.in_transaction
            assert len(store) == 0


class TestDurability:
    def test_runner_results_survive_process_restart(self, tmp_path):
        """Results written by one BatchRunner are hits in a fresh process."""
        store_path = tmp_path / "shared.sqlite"
        runner = BatchRunner(max_workers=1, store=store_path)
        instances = [uniform_instance(15, 3, 3, seed=s, integral=True)
                     for s in range(3)]
        batch = runner.run(["class-aware-greedy", "lpt-with-setups"], instances)
        assert not batch.failures()
        assert runner.stats["store_puts"] == 6
        makespans = [r.makespan for r in batch.results]

        script = textwrap.dedent("""
            import sys
            from repro.generators import uniform_instance
            from repro.runtime import BatchRunner
            runner = BatchRunner(max_workers=1, store=sys.argv[1])
            instances = [uniform_instance(15, 3, 3, seed=s, integral=True)
                         for s in range(3)]
            batch = runner.run(["class-aware-greedy", "lpt-with-setups"], instances)
            assert runner.stats["store_hits"] == 6, runner.stats
            assert runner.stats["cache_hits"] == 0, runner.stats
            print(",".join(repr(r.makespan) for r in batch.results))
        """)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", script, str(store_path)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        fresh_makespans = [float(eval(v)) for v in proc.stdout.strip().split(",")]
        assert fresh_makespans == makespans

    def test_corrupted_store_is_rebuilt(self, tmp_path):
        path = tmp_path / "corrupt.sqlite"
        path.write_bytes(b"this is definitely not a sqlite database\x00\xff" * 64)
        store = ResultStore(path)
        assert len(store) == 0
        assert store.stats_counters["rebuilds"] == 1
        task = _task()
        store.put(task, _result_for(task))
        assert store.get(task) is not None
        store.close()

    def test_old_schema_store_is_rebuilt(self, tmp_path):
        path = tmp_path / "old.sqlite"
        with ResultStore(path) as store:
            store.put(_task(), _result_for(_task()))
        conn = sqlite3.connect(path)
        conn.execute("UPDATE store_meta SET value = ? WHERE key = 'schema_version'",
                     (str(SCHEMA_VERSION + 1),))
        conn.commit()
        conn.close()
        with ResultStore(path) as reopened:
            assert len(reopened) == 0  # rebuilt empty, not crashed
            assert reopened.stats_counters["rebuilds"] == 1

    def test_rows_from_another_package_version_are_purged(self, tmp_path):
        """Cache keys hash inputs, not code: a version bump must invalidate."""
        path = tmp_path / "versioned.sqlite"
        task = _task()
        with ResultStore(path) as store:
            store.put(task, _result_for(task))
        conn = sqlite3.connect(path)
        conn.execute("UPDATE results SET repro_version = '0.0.0-older'")
        conn.commit()
        conn.close()
        with ResultStore(path) as reopened:
            assert reopened.stats_counters["version_purged"] == 1
            assert not reopened.contains(task)

    def test_unreadable_payload_is_dropped_not_raised(self, tmp_path):
        path = tmp_path / "stale.sqlite"
        task = _task()
        with ResultStore(path) as store:
            store.put(task, _result_for(task))
        conn = sqlite3.connect(path)
        conn.execute("UPDATE results SET payload = ?", (b"not a pickle",))
        conn.commit()
        conn.close()
        with ResultStore(path) as store:
            assert store.get(task) is None
            assert len(store) == 0  # the stale row was dropped


class TestEviction:
    def test_max_bytes_evicts_least_recently_accessed(self, tmp_path):
        tasks = [_task(seed=s) for s in range(6)]
        results = [_result_for(t) for t in tasks]
        row_bytes = len(pickle.dumps(results[0], pickle.HIGHEST_PROTOCOL))
        store = ResultStore(tmp_path / "s.sqlite", max_bytes=3 * row_bytes + 10)
        for task, result in zip(tasks[:3], results[:3]):
            store.put(task, result)
        assert len(store) == 3
        store.get(tasks[0])  # refresh task 0: tasks 1/2 become the LRU rows
        time.sleep(0.02)
        store.put(tasks[3], results[3])
        assert len(store) == 3
        assert store.contains(tasks[0]) and store.contains(tasks[3])
        assert not store.contains(tasks[1])  # least recently accessed, evicted
        # Total payload stays under the cap no matter how many more puts.
        for task, result in zip(tasks[4:], results[4:]):
            store.put(task, result)
        assert store._total_bytes() <= 3 * row_bytes + 10
        store.close()

    def test_max_age_drops_expired_rows(self, tmp_path):
        task_old, task_new = _task(seed=0), _task(seed=1)
        store = ResultStore(tmp_path / "s.sqlite", max_age_s=1000.0)
        store.put(task_old, _result_for(task_old))
        # Backdate the first row beyond the age limit, then trigger a sweep.
        store._conn.execute("UPDATE results SET created_at = created_at - 5000")
        store._conn.commit()
        store.put(task_new, _result_for(task_new))
        assert not store.contains(task_old)
        assert store.contains(task_new)
        store.close()

    def test_vacuum_runs(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        store.put(_task(), _result_for(_task()))
        store.vacuum()
        assert len(store) == 1
        store.close()


class TestCostModel:
    def _seeded_store(self, tmp_path, *, sizes=(10, 20, 40, 80), quadratic=False):
        """A store with synthetic runtimes growing in n (optionally ~n^2)."""
        store = ResultStore(tmp_path / "cm.sqlite")
        for n in sizes:
            task = _task(seed=n, n=n)
            runtime = (n / 100.0) ** 2 if quadratic else n / 100.0
            store.put(task, _result_for(task, runtime=runtime))
        return store

    def test_predictions_grow_with_instance_size(self, tmp_path):
        store = self._seeded_store(tmp_path, quadratic=True)
        model = CostModel.fit_from_store(store)
        small = uniform_instance(12, 3, 3, seed=1, integral=True)
        large = uniform_instance(200, 3, 3, seed=2, integral=True)
        p_small = model.predict("class-aware-greedy", small)
        p_large = model.predict("class-aware-greedy", large)
        assert p_small is not None and p_large is not None
        assert p_large > p_small > 0
        store.close()

    def test_unknown_algorithm_predicts_none(self, tmp_path):
        store = self._seeded_store(tmp_path)
        model = CostModel.fit_from_store(store)
        inst = uniform_instance(12, 3, 3, seed=1, integral=True)
        assert model.predict("never-recorded", inst) is None
        assert model.known_algorithms() == ["class-aware-greedy"]
        store.close()

    def test_few_samples_fall_back_to_mean(self, tmp_path):
        store = ResultStore(tmp_path / "cm.sqlite")
        task = _task(seed=1)
        store.put(task, _result_for(task, runtime=0.25))
        model = CostModel.fit_from_store(store)
        predicted = model.predict("class-aware-greedy",
                                  uniform_instance(50, 4, 4, seed=3, integral=True))
        assert predicted == pytest.approx(0.25, rel=0.05)
        store.close()

    def test_order_tasks_descends_by_predicted_cost(self, tmp_path):
        store = self._seeded_store(tmp_path, quadratic=True)
        model = CostModel.fit_from_store(store)
        small, mid, large = (_task(seed=s, n=n)
                             for s, n in ((1, 10), (2, 50), (3, 150)))
        unknown = BatchTask.make("ptas-uniform", small.instance, {"epsilon": 0.5})
        ordered = model.order_tasks([small, mid, unknown, large])
        # Unknown cost first (could be a giant), then known descending.
        assert ordered == [unknown, large, mid, small]
        store.close()

    def test_runner_orders_cold_tasks_by_cost(self, tmp_path):
        """A warm store makes a fresh runner dispatch heavy tasks first."""
        store_path = tmp_path / "order.sqlite"
        sizes = (10, 30, 60, 120)
        tasks = [_task(seed=n, n=n) for n in sizes]
        with ResultStore(store_path) as store:
            for task, n in zip(tasks, sizes):
                store.put(task, _result_for(task, runtime=(n / 50.0) ** 2))
        runner = BatchRunner(max_workers=1, store=store_path, cache=False)
        ordered = runner._order_by_cost(tasks, list(range(len(tasks))))
        assert ordered == [3, 2, 1, 0]

    def test_portfolio_budget_skips_predicted_blowups(self, tmp_path):
        """budget_s skips the solver the cost model predicts over budget."""
        store_path = tmp_path / "budget.sqlite"
        instances = [uniform_instance(20, 3, 4, seed=s, integral=True)
                     for s in range(3)]
        slow_task = [BatchTask.make("ptas-uniform", inst, {"epsilon": 0.25})
                     for inst in instances]
        fast_task = [BatchTask.make("class-aware-greedy", inst)
                     for inst in instances]
        with ResultStore(store_path) as store:
            for task in slow_task:
                store.put(task, _result_for(task, runtime=120.0))  # "2 minutes"
            for task in fast_task:
                store.put(task, _result_for(task, runtime=0.001))
        runner = BatchRunner(max_workers=1, store=store_path)
        best = runner.portfolio(instances,
                                algorithms=["ptas-uniform", "class-aware-greedy"],
                                budget_s=1.0)
        for result in best:
            assert result.meta["skipped_by_cost_model"] == ["ptas-uniform"]
            assert result.name == "class-aware-greedy"

    def test_portfolio_budget_never_serves_nothing(self, tmp_path):
        """With every candidate over budget, the cheapest still runs."""
        store_path = tmp_path / "allover.sqlite"
        instances = [uniform_instance(20, 3, 4, seed=9, integral=True)]
        with ResultStore(store_path) as store:
            for name, runtime in (("class-aware-greedy", 50.0),
                                  ("lpt-with-setups", 80.0)):
                task = BatchTask.make(name, instances[0])
                store.put(task, _result_for(task, runtime=runtime))
        runner = BatchRunner(max_workers=1, store=store_path)
        best = runner.portfolio(instances,
                                algorithms=["class-aware-greedy", "lpt-with-setups"],
                                budget_s=0.001)
        assert best[0].name == "class-aware-greedy"  # cheapest-predicted ran
        assert best[0].meta["skipped_by_cost_model"] == ["lpt-with-setups"]


class TestStoreCli:
    def _populated(self, tmp_path):
        path = tmp_path / "cli.sqlite"
        with ResultStore(path) as store:
            for s in range(2):
                task = _task(seed=s)
                store.put(task, _result_for(task))
        return path

    def test_stats_human_and_json(self, tmp_path, capsys):
        path = self._populated(tmp_path)
        assert store_cli(["--store", str(path), "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:  2" in out
        assert store_cli(["--store", str(path), "stats", "--json"]) == 0
        import json
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 2

    def test_vacuum_and_export(self, tmp_path, capsys):
        path = self._populated(tmp_path)
        assert store_cli(["--store", str(path), "vacuum"]) == 0
        out_file = tmp_path / "dump.jsonl"
        assert store_cli(["--store", str(path), "export",
                          "--output", str(out_file)]) == 0
        assert len(out_file.read_text().strip().splitlines()) == 2

    def test_missing_store_path_errors(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        assert store_cli(["stats"]) == 2

    def test_module_entry_point(self, tmp_path):
        path = self._populated(tmp_path)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.store", "--store", str(path), "stats"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "entries:  2" in proc.stdout


#: Run by each concurrent opener: wait at a file barrier, then open the
#: round's fresh store (half the processes open the queue first, as a
#: supervisor does), publish one result and report the rebuild count.
_OPENER = textwrap.dedent("""
    import json, sys, time
    from pathlib import Path
    from repro.algorithms.base import AlgorithmResult
    from repro.core.bounds import greedy_upper_bound
    from repro.generators import uniform_instance
    from repro.runtime import BatchTask
    from repro.store import ResultStore, TaskQueue

    root, me, procs, rounds = Path(sys.argv[1]), int(sys.argv[2]), \\
        int(sys.argv[3]), int(sys.argv[4])
    task = BatchTask.make("class-aware-greedy",
                          uniform_instance(8, 2, 2, seed=me, integral=True))
    _, schedule = greedy_upper_bound(task.instance)
    result = AlgorithmResult.from_schedule(task.algorithm, schedule)
    rebuilds = 0
    deadline = time.monotonic() + 60
    for r in range(rounds):
        (root / f"gate-{r}-{me}").touch()
        while len(list(root.glob(f"gate-{r}-*"))) < procs:
            if time.monotonic() > deadline:  # a sibling died: do not spin on
                sys.exit(f"opener {me}: round {r} gate never filled")
            time.sleep(0.002)
        path = root / f"fresh-{r}.sqlite"
        if me % 2:
            TaskQueue(path).close()
        with ResultStore(path) as store:
            TaskQueue(store).close()
            store.put(task, result)
            rebuilds += store.stats_counters["rebuilds"]
    print(json.dumps({"rebuilds": rebuilds}))
""")


class TestConcurrentOpen:
    """Opening a store never deletes one: lock, busy and locking-protocol
    errors are contention, not corruption."""

    def test_held_write_lock_raises_and_keeps_every_row(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(result_store, "BUSY_TIMEOUT_S", 0.2)
        path = tmp_path / "busy.sqlite"
        task = _task()
        with ResultStore(path) as store:
            store.put(task, _result_for(task))
        holder = sqlite3.connect(str(path))
        holder.execute("BEGIN IMMEDIATE")
        try:
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                ResultStore(path)
        finally:
            holder.close()
        with ResultStore(path) as reopened:
            assert reopened.stats_counters["rebuilds"] == 0
            assert len(reopened) == 1
            assert reopened.get(task) is not None

    def test_concurrent_fresh_openers_never_rebuild(self, tmp_path):
        procs, rounds = 6, 8
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        openers = [subprocess.Popen(
            [sys.executable, "-c", _OPENER, str(tmp_path), str(me),
             str(procs), str(rounds)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for me in range(procs)]
        for proc in openers:
            stdout, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr
            assert '"rebuilds": 0' in stdout, stdout
        for r in range(rounds):
            with ResultStore(tmp_path / f"fresh-{r}.sqlite") as store:
                assert len(store) == procs  # nobody's row was dropped

    def test_contention_is_told_from_corruption(self, tmp_path):
        def raised(fn):
            try:
                fn()
            except sqlite3.Error as exc:
                return exc
            raise AssertionError("no sqlite3 error raised")

        path = str(tmp_path / "locked.sqlite")
        holder = sqlite3.connect(path, isolation_level=None)
        other = sqlite3.connect(path, timeout=0)
        try:
            holder.execute("CREATE TABLE t (x)")
            holder.execute("BEGIN EXCLUSIVE")
            assert result_store.is_contention(
                raised(lambda: other.execute("SELECT * FROM t")))
            holder.execute("ROLLBACK")
            assert not result_store.is_contention(
                raised(lambda: other.execute("SELECT repro_version FROM t")))
        finally:
            other.close()
            holder.close()
        protocol = sqlite3.OperationalError("locking protocol")
        protocol.sqlite_errorcode = sqlite3.SQLITE_PROTOCOL
        assert result_store.is_contention(protocol)
        garbage = tmp_path / "garbage.sqlite"
        garbage.write_bytes(b"not a database " * 100)
        conn = sqlite3.connect(str(garbage))
        try:
            assert not result_store.is_contention(
                raised(lambda: conn.execute("SELECT * FROM sqlite_master")))
        finally:
            conn.close()
        # Errors the sqlite3 module raises itself carry no result code.
        assert not result_store.is_contention(
            raised(lambda: conn.execute("SELECT 1")))


class TestUnusableFile:
    """A path SQLite cannot use at all fails with a ``ValueError`` that
    names it; a store still rebuilds a corrupt file, and a queue never
    touches one (the file's ``results`` may be real computed value)."""

    @pytest.mark.parametrize("opener", [ResultStore, TaskQueue])
    def test_directory_is_rejected_with_its_path(self, tmp_path, opener):
        target = tmp_path / "a-directory"
        target.mkdir()
        with pytest.raises(ValueError, match=re.escape(str(target))):
            opener(target)
        assert target.is_dir()

    @settings(max_examples=40, deadline=None)
    @given(with_header=st.booleans(), body=st.binary(max_size=4096))
    def test_arbitrary_bytes(self, with_header, body):
        data = (b"SQLite format 3\x00" if with_header else b"") + body
        task = _task()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.sqlite"
            path.write_bytes(data)
            try:
                TaskQueue(path).close()
            except ValueError as exc:
                assert str(path) in str(exc)
                assert path.read_bytes() == data  # neither rebuilt nor deleted
            with ResultStore(path) as store:
                assert len(store) == 0
                store.put(task, _result_for(task))
                assert store.get(task) is not None
