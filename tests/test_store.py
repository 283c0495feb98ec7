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


def _row_bytes(tmp_path: Path, task: BatchTask, result: AlgorithmResult) -> int:
    """The ``payload_bytes`` of ``result``'s row, read back from a store."""
    with ResultStore(tmp_path / "row-bytes.sqlite") as store:
        store.put(task, result)
        (record,) = store.records()
    return record.payload_bytes


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
        row_bytes = _row_bytes(tmp_path, tasks[0], results[0])
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
    def test_max_bytes_evicts_oldest_written_first(self, tmp_path):
        tasks = [_task(seed=s) for s in range(6)]
        results = [_result_for(t) for t in tasks]
        row_bytes = _row_bytes(tmp_path, tasks[0], results[0])
        store = ResultStore(tmp_path / "s.sqlite", max_bytes=3 * row_bytes + 10)
        for task, result in zip(tasks[:3], results[:3]):
            store.put(task, result)
            time.sleep(0.02)
        assert len(store) == 3
        store.get(tasks[0])  # a read does not make task 0 any younger
        store.put(tasks[3], results[3])
        assert len(store) == 3
        assert not store.contains(tasks[0])  # oldest written, evicted
        assert all(store.contains(t) for t in tasks[1:4])
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


#: A schema-2 store file: whole-result payloads and an access-time column.
_SCHEMA_V2 = """
CREATE TABLE store_meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
INSERT INTO store_meta VALUES ('schema_version', '2');
CREATE TABLE results (
    key TEXT PRIMARY KEY, repro_version TEXT NOT NULL,
    algorithm TEXT NOT NULL, environment TEXT NOT NULL,
    num_jobs INTEGER NOT NULL, num_machines INTEGER NOT NULL,
    num_classes INTEGER NOT NULL, wall_seconds REAL NOT NULL,
    payload BLOB NOT NULL, payload_bytes INTEGER NOT NULL,
    created_at REAL NOT NULL, last_access REAL NOT NULL);
CREATE INDEX idx_results_last_access ON results (last_access);
"""


class TestPayloadContract:
    """A payload leaves the task's own instance out; reads never write."""

    def test_roundtrip_puts_the_task_instance_back(self, tmp_path):
        tasks = [_task(seed=s) for s in range(3)]
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put(tasks[0], _result_for(tasks[0]))
            store.put_many([(t, _result_for(t)) for t in tasks[1:]])
            fetched = store.get(tasks[0])
            warm = store.prefetch(tasks)
        assert fetched.schedule.instance is tasks[0].instance
        for task in tasks:
            assert warm[task.cache_key()].schedule.instance is task.instance

    def test_payload_is_smaller_than_a_plain_pickle(self, tmp_path):
        task = _task()
        result = _result_for(task)
        plain = len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
        assert _row_bytes(tmp_path, task, result) < plain / 2

    def test_another_instance_object_is_stored_whole(self, tmp_path):
        """Only the task's own object is left out: an equal copy is not
        matched by identity, so it is pickled and read back whole."""
        import copy

        task = _task()
        twin = copy.deepcopy(task.instance)
        _, schedule = greedy_upper_bound(twin)
        result = AlgorithmResult.from_schedule(task.algorithm, schedule)
        assert _row_bytes(tmp_path, task, result) >= len(
            pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put(task, result)
            fetched = store.get(task)
        assert fetched.schedule.instance is not task.instance
        assert (fetched.schedule.instance.processing
                == task.instance.processing).all()
        assert fetched.makespan == result.makespan

    def test_encode_decode_restore_the_task_instance_by_identity(self):
        """A foreign instance in ``meta`` (an equal copy included) is
        pickled whole; only the task's own object becomes the token."""
        task = _task()
        result = _result_for(task)
        twin = pickle.loads(pickle.dumps(task.instance))
        result.meta["sub"] = twin
        payload = result_store.encode(task, result)
        assert len(payload) > len(pickle.dumps(twin))
        decoded = result_store.decode(task, payload)
        assert decoded.schedule.instance is task.instance
        assert decoded.meta["sub"] is not task.instance
        assert decoded.meta["sub"] == task.instance
        assert decoded.schedule.assignment.tolist() \
            == result.schedule.assignment.tolist()
        assert decoded.schedule.assignment.flags.writeable

    def test_warm_reads_write_nothing(self, tmp_path):
        tasks = [_task(seed=s) for s in range(4)]
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put_many([(t, _result_for(t)) for t in tasks])
            before = store._conn.total_changes
            assert len(store.prefetch(tasks)) == 4
            assert store.get(tasks[0]) is not None
            assert store._conn.total_changes == before
            assert not store._conn.in_transaction

    def test_schema_2_file_is_rebuilt_empty(self, tmp_path):
        path = tmp_path / "v2.sqlite"
        task = _task()
        conn = sqlite3.connect(path)
        conn.executescript(_SCHEMA_V2)
        payload = pickle.dumps(_result_for(task), pickle.HIGHEST_PROTOCOL)
        with conn:
            conn.execute(
                "INSERT INTO results VALUES (?, ?, ?, 'uniform', 15, 3, 3,"
                " 0.01, ?, ?, 0.0, 0.0)",
                (task.cache_key(), result_store._REPRO_VERSION, task.algorithm,
                 payload, len(payload)))
        conn.close()
        with ResultStore(path) as store:
            assert len(store) == 0
            assert store.stats_counters["rebuilds"] == 1
            columns = {row[1] for row in store._conn.execute(
                "PRAGMA table_info(results)")}
            assert "last_access" not in columns
            store.put(task, _result_for(task))
            assert store.get(task) is not None

    def test_pool_run_stores_payloads_of_serial_size(self, tmp_path):
        """Pool results come back with a copy of the instance; the runner
        points them at the task's own, so they store as small as serial."""
        instances = [uniform_instance(15, 3, 3, seed=s, integral=True)
                     for s in range(3)]
        sizes = {}
        for backend in ("serial", "pool"):
            path = tmp_path / f"{backend}.sqlite"
            runner = BatchRunner(max_workers=2, backend=backend, store=path)
            batch = runner.run(["class-aware-greedy"], instances)
            assert not batch.failures()
            sizes[backend] = {r.key: r.payload_bytes
                              for r in runner.store.records()}
            runner.store.close()
        assert len(sizes["pool"]) == 3
        assert sizes["pool"] == sizes["serial"]


#: A results-only store file as schema version 3 wrote it.
_SCHEMA_V3 = """
CREATE TABLE store_meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
INSERT INTO store_meta VALUES ('schema_version', '3');
CREATE TABLE results (
    key TEXT PRIMARY KEY, repro_version TEXT NOT NULL,
    algorithm TEXT NOT NULL, environment TEXT NOT NULL,
    num_jobs INTEGER NOT NULL, num_machines INTEGER NOT NULL,
    num_classes INTEGER NOT NULL, wall_seconds REAL NOT NULL,
    payload BLOB NOT NULL, payload_bytes INTEGER NOT NULL,
    created_at REAL NOT NULL);
CREATE INDEX idx_results_algorithm ON results (algorithm);
"""

#: The task queue that shared a version-3 file, in its own layout 6 with
#: its own stamp and change counter in ``task_queue_meta``.
_QUEUE_V6 = """
CREATE TABLE task_queue (
    key TEXT PRIMARY KEY, task_payload BLOB NOT NULL,
    status TEXT NOT NULL DEFAULT 'queued', owner TEXT,
    lease_expires_at REAL, attempts INTEGER NOT NULL DEFAULT 0,
    compute_count INTEGER NOT NULL DEFAULT 0, excluded_worker TEXT,
    error TEXT, enqueued_at REAL NOT NULL, updated_at REAL NOT NULL,
    seq INTEGER NOT NULL DEFAULT 0);
CREATE INDEX idx_task_queue_status ON task_queue (status, enqueued_at);
CREATE INDEX idx_task_queue_seq ON task_queue (seq);
CREATE TABLE task_queue_meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
INSERT INTO task_queue_meta VALUES ('queue_schema_version', '6'),
                                   ('change_seq', '7');
"""


def _write_v3_file(path: Path, *, with_queue: bool) -> None:
    """A version-3 file holding one result and, ``with_queue``, a v6
    queue holding one ``queued`` row."""
    task = _task(seed=99)
    payload = pickle.dumps(_result_for(task), pickle.HIGHEST_PROTOCOL)
    conn = sqlite3.connect(str(path))
    conn.executescript(_SCHEMA_V3 + (_QUEUE_V6 if with_queue else ""))
    with conn:
        conn.execute(
            "INSERT INTO results VALUES (?, ?, ?, 'uniform', 15, 3, 3,"
            " 0.01, ?, ?, 0.0)",
            (task.cache_key(), result_store._REPRO_VERSION, task.algorithm,
             payload, len(payload)))
        if with_queue:
            conn.execute(
                "INSERT INTO task_queue (key, task_payload, enqueued_at,"
                " updated_at, seq) VALUES (?, ?, 0.0, 0.0, 7)",
                (task.cache_key(), pickle.dumps(task)))
    conn.close()


def _tables(store: ResultStore) -> set:
    return {name for (name,) in store._conn.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table'")}


def _meta(store: ResultStore) -> list:
    return store._conn.execute(
        "SELECT key, value FROM store_meta ORDER BY key").fetchall()


class TestOneSchema:
    """The store owns the whole file's layout, the task queue's table
    included, under one version stamp."""

    def test_fresh_file_holds_one_stamp_and_the_change_counter(self,
                                                              tmp_path):
        with ResultStore(tmp_path / "fresh.sqlite") as store:
            assert store.stats_counters["rebuilds"] == 0
            assert _tables(store) == {"store_meta", "results", "task_queue"}
            assert _meta(store) == [("change_seq", "0"),
                                    ("schema_version", str(SCHEMA_VERSION))]
            assert SCHEMA_VERSION == 5

    @pytest.mark.parametrize("with_queue", [False, True],
                             ids=["results-only", "with-v6-queue"])
    def test_version_3_file_opens_as_an_empty_current_file(self, tmp_path,
                                                           with_queue):
        path = tmp_path / "v3.sqlite"
        _write_v3_file(path, with_queue=with_queue)
        with ResultStore(path) as store, TaskQueue(store) as queue:
            assert store.stats_counters["rebuilds"] == 1
            assert len(store) == 0 and queue.rows() == []
            assert _tables(store) == {"store_meta", "results", "task_queue"}
            assert _meta(store) == [("change_seq", "0"),
                                    ("schema_version", str(SCHEMA_VERSION))]
            task = _task()
            queue.enqueue([task])
            leased = queue.lease("w1")
            queue.complete(leased.key, "w1", computed=True,
                           publish=(task, _result_for(task)))
            assert queue.last_seq() == 3  # enqueue, lease, complete
        with ResultStore(path) as reopened:  # current now: no second rebuild
            assert reopened.stats_counters["rebuilds"] == 0
            assert reopened.get(task) is not None

    def test_version_4_file_opens_as_an_empty_current_file(self, tmp_path):
        """Version 5 changed only the payload (raw assignment bytes): a
        file stamped 4 has the current layout and is still rebuilt."""
        path = tmp_path / "v4.sqlite"
        task = _task()
        with ResultStore(path) as store:
            store.put(task, _result_for(task))
            with store._conn:
                store._conn.execute("UPDATE store_meta SET value = '4'"
                                    " WHERE key = 'schema_version'")
        with ResultStore(path) as store:
            assert store.stats_counters["rebuilds"] == 1
            assert len(store) == 0 and store.get(task) is None
            assert _tables(store) == {"store_meta", "results", "task_queue"}
            assert _meta(store) == [("change_seq", "0"),
                                    ("schema_version", "5")]

    def test_a_stale_file_is_rebuilt_in_place(self, tmp_path):
        """A connection that held the stale file open sees the rebuilt
        one: an unlinked file would leave it reading a deleted copy."""
        path = tmp_path / "v3.sqlite"
        _write_v3_file(path, with_queue=True)
        other = sqlite3.connect(str(path))
        try:
            assert other.execute("SELECT COUNT(*) FROM results").fetchone() \
                == (1,)
            with ResultStore(path) as store:
                assert store.stats_counters["rebuilds"] == 1
            assert other.execute(
                "SELECT value FROM store_meta WHERE key = 'schema_version'"
            ).fetchone() == (str(SCHEMA_VERSION),)
            assert other.execute("SELECT COUNT(*) FROM results").fetchone() \
                == (0,)
        finally:
            other.close()


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

    def test_order_indices_descends_by_predicted_cost(self, tmp_path):
        store = self._seeded_store(tmp_path, quadratic=True)
        model = CostModel.fit_from_store(store)
        small, mid, large = (_task(seed=s, n=n)
                             for s, n in ((1, 10), (2, 50), (3, 150)))
        unknown = BatchTask.make("ptas-uniform", small.instance, {"epsilon": 0.5})
        # Unknown cost first (could be a giant), then known descending.
        assert model.order_indices([small, mid, unknown, large]) == [2, 3, 1, 0]
        store.close()

    def test_runner_orders_cold_tasks_by_cost(self, tmp_path):
        """A warm store makes a fresh runner dispatch heavy tasks first."""
        store_path = tmp_path / "order.sqlite"
        sizes = (10, 30, 60, 120)
        tasks = [_task(seed=n, n=n) for n in sizes]
        with ResultStore(store_path) as store:
            for task, n in zip(tasks, sizes):
                store.put(task, _result_for(task, runtime=(n / 50.0) ** 2))
        runner = BatchRunner(max_workers=1, store=store_path)
        ordered = runner._order_by_cost(tasks, list(range(len(tasks))))
        assert ordered == [3, 2, 1, 0]


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

    def test_concurrent_opener_keeps_rows_written_after_the_rebuild(
            self, tmp_path, monkeypatch):
        """Two processes open the same stale file: the one whose first
        read of the stamp saw the old version must read it again under
        the write lock, not drop the results and queue rows the other
        wrote after its rebuild."""
        path = tmp_path / "race.sqlite"
        _write_v3_file(path, with_queue=True)
        task, queued = _task(seed=1), _task(seed=2)
        with ResultStore(path) as first, TaskQueue(first) as queue:
            assert first.stats_counters["rebuilds"] == 1
            first.put(task, _result_for(task))
            queue.enqueue([queued])
        reads = []
        read_stamp = result_store._read_stamp

        def stale_first_read(conn):
            reads.append(conn)
            return "3" if len(reads) == 1 else read_stamp(conn)

        monkeypatch.setattr(result_store, "_read_stamp", stale_first_read)
        with ResultStore(path) as second, TaskQueue(second) as queue:
            assert second.stats_counters["rebuilds"] == 0
            assert second.get(task) is not None
            assert [r.key for r in queue.rows()] == [queued.cache_key()]
        assert len(reads) == 2

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
    names it; a corrupt file is rebuilt, whether a store or a queue
    (which opens a store) opens it."""

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
