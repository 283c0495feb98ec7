"""The distributed work queue: leases, crash recovery, cross-process dedup.

The contracts that matter for N workers sharing one store file:

* a lease is exclusive — two workers can never claim the same row;
* a crashed worker's lease expires, the task requeues with the dead
  worker excluded, and a task that keeps killing workers stops retrying
  after ``max_attempts``;
* publish is atomic: every queue runs on a store's connection, and the
  result INSERT, the row's turn to ``done`` and the change-counter advance
  commit in one transaction, or roll back together;
* an idle poll takes no write lock: reclaim and lease read first;
* dedup is store-mediated: a key whose result is already published is
  completed without computing, so ``compute_count == 1`` for every key no
  matter how many workers drain the queue (verified across real
  subprocesses below; everything passes on a 1-CPU container);
* a row carries no time limit: a worker publishes each result as the
  algorithm returned it;
* every state transition stamps a commit-ordered change counter, so a
  poller reading ``changes_since`` its last cursor misses nothing;
* a lease is two ordered index probes, never a sort of the table.

The queue's on-disk layout belongs to the store's schema and is tested
with it, in ``tests/test_store.py``.

Faults are injected with ``repro.testing`` (chaos workers, FakeClock) —
no ``time.sleep``-based assertions: lease expiry is driven by advancing
an injected clock.
"""

from __future__ import annotations

import os
import sqlite3
import subprocess
import sys
import time

import pytest

from repro.algorithms.base import AlgorithmResult
from repro.core.bounds import greedy_upper_bound
from repro.core.instance import Instance
from repro.generators import uniform_instance
from repro.runtime import (BatchRunner, BatchTask, register_algorithm,
                           unregister_algorithm)
from repro.runtime import worker
from repro.runtime.backends.queue import process_lease
from repro.runtime.worker import drain
from repro.store import ResultStore, TaskQueue
from repro.store import result_store
from repro.store.task_queue import _LEASE_SQL
from repro.testing import FakeClock
from repro.testing import chaos


def _task(seed: int = 0, algorithm: str = "class-aware-greedy") -> BatchTask:
    return BatchTask.make(algorithm, uniform_instance(12, 3, 3, seed=seed,
                                                      integral=True))


def _result_for(task: BatchTask) -> AlgorithmResult:
    _, schedule = greedy_upper_bound(task.instance)
    return AlgorithmResult.from_schedule(task.algorithm, schedule)


def _src_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestQueueBasics:
    def test_enqueue_dedups_by_key(self, tmp_path):
        task = _task()
        with TaskQueue(tmp_path / "q.sqlite") as queue:
            assert queue.enqueue([task, task]) == [task.cache_key()]
            assert queue.enqueue([task]) == []  # someone already owns it
            assert len(queue) == 1
            assert queue.counts()["queued"] == 1

    def test_lease_is_exclusive_and_fifo(self, tmp_path):
        tasks = [_task(seed=s) for s in range(3)]
        with TaskQueue(tmp_path / "q.sqlite") as queue:
            queue.enqueue(tasks)
            first = queue.lease("w1")
            second = queue.lease("w2")
            assert first.key != second.key
            assert first.key == tasks[0].cache_key()  # oldest first
            third = queue.lease("w1")
            assert queue.lease("w3") is None  # nothing left to claim
            assert {first.key, second.key, third.key} == \
                {t.cache_key() for t in tasks}

    def test_complete_and_compute_counts(self, tmp_path):
        task = _task()
        with TaskQueue(tmp_path / "q.sqlite") as queue:
            queue.enqueue([task])
            leased = queue.lease("w1")
            queue.complete(leased.key, "w1", computed=True)
            assert queue.counts()["done"] == 1
            assert queue.outstanding() == 0
            assert queue.compute_counts([leased.key]) == {leased.key: 1}

    def test_dedup_complete_does_not_count_a_compute(self, tmp_path):
        task = _task()
        with TaskQueue(tmp_path / "q.sqlite") as queue:
            queue.enqueue([task])
            leased = queue.lease("w1")
            queue.complete(leased.key, "w1", computed=False)
            assert queue.compute_counts([leased.key]) == {leased.key: 0}

    def test_fail_marks_failed_and_enqueue_rearms(self, tmp_path):
        task = _task()
        with TaskQueue(tmp_path / "q.sqlite") as queue:
            queue.enqueue([task])
            leased = queue.lease("w1")
            queue.fail(leased.key, "w1", "ValueError: nope")
            (row,) = queue.rows([leased.key])
            assert row.status == "failed"
            assert "nope" in row.error
            # Explicit re-submission re-arms with a fresh attempt budget.
            assert queue.enqueue([task]) == [leased.key]
            (row,) = queue.rows([leased.key])
            assert row.status == "queued" and row.attempts == 0

    def test_requeue_rearms_done_rows(self, tmp_path):
        """The orphaned-result escape hatch: a done row whose store result
        vanished (eviction, version purge) can be re-armed for recompute."""
        task = _task()
        with TaskQueue(tmp_path / "q.sqlite") as queue:
            queue.enqueue([task])
            leased = queue.lease("w1")
            queue.complete(leased.key, "w1", computed=True)
            assert queue.enqueue([task]) == []  # done rows stay done
            assert queue.requeue([leased.key]) == 1
            (row,) = queue.rows([leased.key])
            assert row.status == "queued" and row.attempts == 0
            assert queue.lease("w2") is not None

    def test_requeue_spares_inflight_rows(self, tmp_path):
        tasks = [_task(seed=s) for s in range(2)]
        with TaskQueue(tmp_path / "q.sqlite") as queue:
            queue.enqueue(tasks)
            leased = queue.lease("w1")
            assert queue.requeue([t.cache_key() for t in tasks]) == 0
            (row,) = queue.rows([leased.key])
            assert row.status == "leased"  # the active lease survived

    def test_cancel_queued_spares_leased_and_done(self, tmp_path):
        tasks = [_task(seed=s) for s in range(3)]
        keys = [t.cache_key() for t in tasks]
        with TaskQueue(tmp_path / "q.sqlite") as queue:
            queue.enqueue(tasks)
            leased = queue.lease("w1")
            queue.cancel_queued(keys)
            statuses = {row.key: row.status for row in queue.rows()}
            assert statuses == {leased.key: "leased"}  # queued rows dropped


class TestFakeClock:
    """Lease expiry driven entirely by an injected clock — zero sleeps."""

    def test_injected_clock_drives_lease_expiry(self, tmp_path):
        clock = FakeClock(100.0)
        task = _task()
        with TaskQueue(tmp_path / "c.sqlite", lease_s=10.0,
                       clock=clock) as queue:
            queue.enqueue([task])
            leased = queue.lease("w1")
            assert queue.reclaim_expired() == 0  # lease still live
            clock.advance(9.0)
            assert queue.reclaim_expired() == 0  # 9s in: still live
            clock.advance(2.0)
            assert queue.reclaim_expired() == 1  # 11s in: expired
            (row,) = queue.rows([leased.key])
            assert row.status == "queued"
            assert row.excluded_worker == "w1"
            # The exclusion grace is clock-driven too.
            assert queue.lease("w1") is None
            clock.advance(10.5)
            assert queue.lease("w1") is not None


class TestLeaseExpiry:
    # nan would store a NULL expiry (a crashed worker's row stays leased
    # forever); inf and None never expire; a bool or a string is not a
    # duration.
    @pytest.mark.parametrize("lease_s", [float("nan"), float("inf"), None,
                                         0.0, -1.0, True, "60"], ids=repr)
    def test_bad_lease_s_is_rejected_by_name(self, tmp_path, lease_s):
        with pytest.raises(ValueError, match="lease_s"):
            TaskQueue(tmp_path / "q.sqlite", lease_s=lease_s)

    @pytest.mark.parametrize("lease_s", ["nan", "inf", "-1"])
    def test_worker_rejects_bad_lease_s_before_leasing(self, tmp_path, lease_s):
        path = tmp_path / "w.sqlite"
        with TaskQueue(path) as queue:
            queue.enqueue([_task()])
        with pytest.raises(ValueError, match="lease_s"):
            worker.main(["--store", str(path), "--lease-s", lease_s,
                         "--idle-exit", "0"])
        with TaskQueue(path) as queue:
            assert queue.counts()["queued"] == 1  # nothing was leased

    # --idle-exit nan never exits, and --poll-s -1 dies in time.sleep
    # after the first idle poll with an error that names no flag.
    @pytest.mark.parametrize("flag, value", [
        ("--poll-s", "-1"), ("--poll-s", "0"), ("--poll-s", "nan"),
        ("--idle-exit", "nan"), ("--idle-exit", "-1"), ("--idle-exit", "inf"),
    ])
    @pytest.mark.parametrize("main", [worker.main, chaos.main],
                             ids=["worker", "chaos"])
    def test_worker_rejects_bad_durations_before_leasing(self, tmp_path,
                                                         main, flag, value):
        path = tmp_path / "w.sqlite"
        with TaskQueue(path) as queue:
            queue.enqueue([_task()])
        argv = ["--store", str(path), flag, value]
        if flag != "--idle-exit":
            argv += ["--idle-exit", "0"]
        with pytest.raises(ValueError, match=flag):
            main(argv)
        with TaskQueue(path) as queue:
            assert queue.counts()["queued"] == 1  # nothing was leased

    # Unchecked, a bad stall dies in time.sleep holding the first lease.
    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_chaos_worker_rejects_a_bad_stall_before_leasing(self, tmp_path,
                                                              value):
        path = tmp_path / "w.sqlite"
        with TaskQueue(path) as queue:
            queue.enqueue([_task()])
        with pytest.raises(ValueError, match="stall_s"):
            chaos.main(["--store", str(path), "--stall-s", value,
                        "--idle-exit", "0"])
        with TaskQueue(path) as queue:
            assert queue.counts()["queued"] == 1  # nothing was leased

    def test_idle_exit_zero_exits_on_the_first_idle_poll(self, tmp_path,
                                                         capsys):
        path = tmp_path / "w.sqlite"
        with TaskQueue(path) as queue:
            queue.enqueue([_task()])
        assert worker.main(["--store", str(path), "--idle-exit", "0"]) == 0
        assert "computed=1" in capsys.readouterr().out

    def test_expired_lease_is_reclaimed_with_exclusion(self, tmp_path):
        task = _task()
        clock = FakeClock(100.0)
        with TaskQueue(tmp_path / "q.sqlite", lease_s=10.0,
                       clock=clock) as queue:
            queue.enqueue([task])
            leased = queue.lease("w1")
            clock.advance(5.0)
            assert queue.reclaim_expired() == 0  # still live
            clock.advance(6.0)
            assert queue.reclaim_expired() == 1  # expired: requeued
            (row,) = queue.rows([leased.key])
            assert row.status == "queued"
            assert row.excluded_worker == "w1"  # presumed-dead worker

    def test_excluded_worker_cannot_reclaim_its_own_casualty(self, tmp_path):
        task = _task()
        clock = FakeClock(100.0)
        with TaskQueue(tmp_path / "q.sqlite", lease_s=10.0,
                       clock=clock) as queue:
            queue.enqueue([task])
            queue.lease("w1")
            clock.advance(11.0)
            queue.reclaim_expired()
            clock.advance(1.0)
            assert queue.lease("w1") is None  # excluded
            other = queue.lease("w2")  # someone else's second try
            assert other is not None and other.attempts == 2

    def test_exclusion_expires_after_a_grace_period(self, tmp_path):
        """A single-worker fleet must not starve its own casualty: once a
        requeued row sat unclaimed for a full lease_s, the excluded worker
        may take it after all."""
        task = _task()
        clock = FakeClock(100.0)
        with TaskQueue(tmp_path / "q.sqlite", lease_s=10.0,
                       clock=clock) as queue:
            queue.enqueue([task])
            queue.lease("w1")
            clock.advance(11.0)
            queue.reclaim_expired()  # requeued, excluded_worker=w1
            clock.advance(4.0)
            assert queue.lease("w1") is None  # inside the grace
            clock.advance(6.5)
            retaken = queue.lease("w1")  # 10s unclaimed: eligible
            assert retaken is not None and retaken.attempts == 2

    def test_attempt_cap_fails_the_task(self, tmp_path):
        task = _task()
        clock = FakeClock(100.0)
        with TaskQueue(tmp_path / "q.sqlite", lease_s=10.0,
                       max_attempts=2, clock=clock) as queue:
            queue.enqueue([task])
            for worker in ("w1", "w2"):  # two attempts, two crashes
                queue.reclaim_expired()  # as every drain loop does
                leased = queue.lease(worker)
                assert leased is not None
                clock.advance(11.0)
            queue.reclaim_expired()
            (row,) = queue.rows([task.cache_key()])
            assert row.status == "failed"
            assert row.attempts == 2
            assert "attempt cap" in row.error
            assert queue.lease("w3") is None


def _hold_write_lock(path) -> sqlite3.Connection:
    """A second connection holding the file's write lock until closed."""
    holder = sqlite3.connect(str(path))
    holder.execute("BEGIN IMMEDIATE")
    return holder


class TestAtomicPublish:
    """``complete(..., publish=(task, result))``: the result and the
    ``done`` row commit together or not at all."""

    def test_publish_is_one_write_transaction(self, tmp_path):
        path = tmp_path / "publish.sqlite"
        task = _task()
        with ResultStore(path) as store, TaskQueue(store) as queue:
            queue.enqueue([task])
            leased = queue.lease("w1")
            statements = []
            store._conn.set_trace_callback(statements.append)
            queue.complete(leased.key, "w1", computed=True,
                           publish=(task, _result_for(task)))
            store._conn.set_trace_callback(None)
            begins = [sql for sql in statements if sql.startswith("BEGIN")]
            assert begins == ["BEGIN IMMEDIATE"], statements
        with ResultStore(path) as store, TaskQueue(path) as queue:
            assert store.get(task) is not None
            (row,) = queue.rows([task.cache_key()])
            assert row.status == "done" and row.compute_count == 1

    def test_failure_after_the_insert_rolls_back_both_tables(self, tmp_path):
        path = tmp_path / "rollback.sqlite"
        task = _task()
        key = task.cache_key()
        with ResultStore(path) as store, TaskQueue(store) as queue:
            queue.enqueue([task])
            queue.lease("w1")
            seq = queue.last_seq()
            put = store.put

            def put_then_fail(*args, **kwargs):
                put(*args, **kwargs)
                raise RuntimeError("injected after the results INSERT")

            store.put = put_then_fail
            with pytest.raises(RuntimeError, match="injected"):
                queue.complete(key, "w1", computed=True,
                               publish=(task, _result_for(task)))
            del store.put
            assert not store._conn.in_transaction
            assert len(store) == 0
            (row,) = queue.rows([key])
            assert row.status == "leased" and row.compute_count == 0
            assert queue.last_seq() == seq
            # The connection is clean: the retry publishes normally.
            queue.complete(key, "w1", computed=True,
                           publish=(task, _result_for(task)))
            assert store.contains(key)
            assert queue.rows([key])[0].status == "done"
            assert queue.last_seq() == seq + 1

    def test_queue_opened_by_path_publishes_and_closes_its_store(
            self, tmp_path):
        path = tmp_path / "by-path.sqlite"
        task = _task()
        with TaskQueue(path) as queue:
            queue.enqueue([task])
            leased = queue.lease("w1")
            statements = []
            queue.store._conn.set_trace_callback(statements.append)
            queue.complete(leased.key, "w1", computed=True,
                           publish=(task, _result_for(task)))
            begins = [sql for sql in statements if sql.startswith("BEGIN")]
            assert begins == ["BEGIN IMMEDIATE"], statements
            store = queue.store
        assert store._conn is None  # closed with the queue that opened it
        with ResultStore(path) as reopened, TaskQueue(reopened) as queue:
            assert reopened.get(task) is not None
            (row,) = queue.rows([task.cache_key()])
            assert row.status == "done" and row.compute_count == 1

    def test_process_lease_decodes_no_payload_it_was_handed(self, tmp_path):
        path = tmp_path / "own.sqlite"
        task = _task()
        with ResultStore(path) as store, TaskQueue(store) as queue:
            queue.enqueue([task])
            leased = queue.lease("w1")
            outcome, result, _ = process_lease(queue, leased, "w1", task=task)
            assert outcome == "computed"
            assert "task" not in vars(leased)  # never unpickled
            assert store.get(task).makespan == result.makespan

    def test_closing_a_bound_queue_leaves_the_store_open(self, tmp_path):
        with ResultStore(tmp_path / "bound.sqlite") as store:
            with TaskQueue(store) as queue:
                assert queue.store is store
            assert len(store) == 0


class TestIdlePolls:
    """Polls that find nothing to do read; they never wait on the write
    lock another connection holds."""

    @pytest.fixture(autouse=True)
    def _short_busy_timeout(self, monkeypatch):
        # Should a poll block after all, fail in seconds, not 30.
        monkeypatch.setattr(result_store, "BUSY_TIMEOUT_S", 2.0)

    def test_idle_reclaim_takes_no_write_lock(self, tmp_path):
        path = tmp_path / "idle.sqlite"
        with TaskQueue(path, lease_s=10.0) as queue:
            queue.enqueue([_task()])
            queue.lease("w1")  # a live lease: nothing has expired
            holder = _hold_write_lock(path)
            try:
                t0 = time.monotonic()
                assert queue.reclaim_expired() == 0
                assert time.monotonic() - t0 < 1.0
            finally:
                holder.close()

    def test_idle_lease_takes_no_write_lock(self, tmp_path):
        path = tmp_path / "idle.sqlite"
        with TaskQueue(path, lease_s=10.0) as queue:
            queue.enqueue([_task()])
            queue.lease("w1")  # nothing else is claimable
            holder = _hold_write_lock(path)
            try:
                t0 = time.monotonic()
                assert queue.lease("w2") is None
                assert time.monotonic() - t0 < 1.0
            finally:
                holder.close()

    def test_idle_lease_still_sees_new_work(self, tmp_path):
        path = tmp_path / "wake.sqlite"
        with TaskQueue(path) as queue, TaskQueue(path) as producer:
            assert queue.lease("w1") is None
            producer.enqueue([_task()])
            assert queue.lease("w1") is not None


class TestWorkerDrain:
    """The importable worker loop (``repro.runtime.worker.drain``)."""

    def test_drain_computes_and_publishes(self, tmp_path):
        path = tmp_path / "drain.sqlite"
        tasks = [_task(seed=s) for s in range(3)]
        with ResultStore(path) as store, TaskQueue(store) as queue:
            queue.enqueue(tasks)
            stats = drain(queue, "w1", idle_exit=0.0, poll_s=0.01)
            assert stats == {"computed": 3, "deduped": 0, "failed": 0}
            assert queue.counts()["done"] == 3
            for task in tasks:
                assert store.get(task) is not None

    def test_drain_dedups_against_the_store(self, tmp_path):
        path = tmp_path / "dedup.sqlite"
        tasks = [_task(seed=s) for s in range(2)]
        with ResultStore(path) as store, TaskQueue(store) as queue:
            store.put(tasks[0], _result_for(tasks[0]))  # already published
            queue.enqueue(tasks)
            stats = drain(queue, "w1", idle_exit=0.0, poll_s=0.01)
            assert stats["deduped"] == 1 and stats["computed"] == 1
            counts = queue.compute_counts([t.cache_key() for t in tasks])
            assert counts[tasks[0].cache_key()] == 0  # never recomputed
            assert counts[tasks[1].cache_key()] == 1

    def test_drain_captures_algorithm_errors_as_failed_rows(self, tmp_path):
        name = "test-queue-failer"

        @register_algorithm(name, tags=("test",))
        def _failer(instance: Instance) -> AlgorithmResult:
            raise ValueError("queue failure")

        try:
            path = tmp_path / "fail.sqlite"
            task = _task(algorithm=name)
            with ResultStore(path) as store, TaskQueue(store) as queue:
                queue.enqueue([task])
                stats = drain(queue, "w1", idle_exit=0.0, poll_s=0.01)
                assert stats["failed"] == 1
                (row,) = queue.rows([task.cache_key()])
                assert row.status == "failed"
                assert "queue failure" in row.error
                assert len(store) == 0  # failures never reach the store
        finally:
            unregister_algorithm(name)


class TestCrossProcess:
    def test_two_subprocess_workers_dedup_on_one_store(self, tmp_path):
        """The F4 property at test scale: N workers, exactly-once compute.

        Tasks are enqueued first, then two real ``python -m
        repro.runtime.worker`` processes race to drain them; every key
        must end ``done`` with ``compute_count == 1`` and the published
        results must be readable.  Runs comfortably on one CPU (the
        workers interleave).
        """
        path = tmp_path / "shared.sqlite"
        tasks = [_task(seed=s) for s in range(4)]
        with TaskQueue(path) as queue:
            queue.enqueue(tasks)
        workers = [
            subprocess.Popen(
                [sys.executable, "-m", "repro.runtime.worker",
                 "--store", str(path), "--worker-id", f"w{i}",
                 "--idle-exit", "1", "--poll-s", "0.02"],
                env=_src_env(), stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True)
            for i in range(2)
        ]
        for proc in workers:
            stdout, stderr = proc.communicate(timeout=60)
            assert proc.returncode == 0, stderr
            assert "computed=" in stdout
        with TaskQueue(path) as queue:
            assert queue.counts() == {"queued": 0, "leased": 0, "done": 4,
                                      "failed": 0}
            counts = queue.compute_counts([t.cache_key() for t in tasks])
            assert all(c == 1 for c in counts.values()), counts
        with ResultStore(path) as store:
            for task in tasks:
                assert store.get(task) is not None

    def test_worker_crash_requeues_with_exclusion(self, tmp_path):
        """A chaos worker killed mid-lease (``--crash-after 0
        --crash-mid-task``: lease the first task, ``os._exit`` holding it)
        leaves an expiring lease; reclaim hands the task to the next
        worker with the dead one excluded.  Expiry is driven by a
        :class:`FakeClock`, not by sleeping through wall-clock time."""
        path = tmp_path / "crash.sqlite"
        task = _task()
        key = task.cache_key()
        with TaskQueue(path, lease_s=30.0) as queue:
            queue.enqueue([task])
        proc = subprocess.run(
            [sys.executable, "-m", "repro.testing.chaos",
             "--store", str(path), "--worker-id", "crashy-worker",
             "--crash-after", "0", "--crash-mid-task", "--lease-s", "30",
             "--idle-exit", "0", "--poll-s", "0.01"],
            capture_output=True, text=True, env=_src_env(), timeout=60)
        assert proc.returncode == 9, proc.stderr  # the worker really died
        clock = FakeClock(time.time())
        with TaskQueue(path, lease_s=30.0, clock=clock) as queue:
            (row,) = queue.rows([key])
            assert row.status == "leased"  # the crash left the lease behind
            assert row.owner == "crashy-worker"
            assert queue.reclaim_expired() == 0  # lease still live
            clock.advance(31.0)
            assert queue.reclaim_expired() == 1
            (row,) = queue.rows([key])
            assert row.status == "queued"
            assert row.excluded_worker == "crashy-worker"
            assert queue.lease("crashy-worker") is None
            takeover = queue.lease("healthy-worker")
            assert takeover is not None and takeover.key == key

    def test_chaos_crash_between_tasks_holds_no_lease(self, tmp_path):
        """``--crash-after N`` without ``--crash-mid-task`` dies *between*
        leases: completed work stays done, nothing is left leased — the
        restart-pressure fault the supervisor soak leans on."""
        path = tmp_path / "between.sqlite"
        tasks = [_task(seed=s) for s in range(3)]
        with TaskQueue(path) as queue:
            queue.enqueue(tasks)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.testing.chaos",
             "--store", str(path), "--worker-id", "fragile-worker",
             "--crash-after", "2", "--idle-exit", "0", "--poll-s", "0.01"],
            capture_output=True, text=True, env=_src_env(), timeout=60)
        assert proc.returncode == 9, proc.stderr
        with TaskQueue(path) as queue:
            counts = queue.counts()
            assert counts == {"queued": 1, "leased": 0, "done": 2,
                              "failed": 0}
        with ResultStore(path) as store:
            done = [t for t in tasks if store.get(t) is not None]
            assert len(done) == 2


    def test_chaos_crash_inside_publish_leaves_neither_write(self, tmp_path):
        """``--crash-in-publish`` dies after the ``results`` INSERT and
        before COMMIT.  The rollback must take both writes: no stored
        result, the row still ``leased``.  After the lease expires, the
        next drain computes the key exactly once, and its result matches
        a serial run."""
        path = tmp_path / "publish-crash.sqlite"
        task = _task()
        key = task.cache_key()
        with TaskQueue(path, lease_s=30.0) as queue:
            queue.enqueue([task])
        proc = subprocess.run(
            [sys.executable, "-m", "repro.testing.chaos",
             "--store", str(path), "--worker-id", "crashy-worker",
             "--crash-after", "0", "--crash-in-publish", "--lease-s", "30",
             "--idle-exit", "0", "--poll-s", "0.01"],
            capture_output=True, text=True, env=_src_env(), timeout=60)
        assert proc.returncode == 9, proc.stderr  # died inside the publish
        clock = FakeClock(time.time())
        with ResultStore(path) as store, \
                TaskQueue(store, lease_s=30.0, clock=clock) as queue:
            assert not store.contains(key)
            (row,) = queue.rows([key])
            assert row.status == "leased" and row.owner == "crashy-worker"
            assert row.compute_count == 0
            clock.advance(31.0)
            assert queue.reclaim_expired() == 1
            stats = drain(queue, "healthy-worker", idle_exit=0.0,
                          poll_s=0.01)
            assert stats["computed"] == 1 and stats["deduped"] == 0
            assert queue.compute_counts([key]) == {key: 1}
            assert len(store) == 1
            published = store.get(task)
        serial = BatchRunner(max_workers=1, backend="serial")
        (expected,) = serial.run_tasks([task]).results
        assert published.makespan == expected.makespan


class TestChangeCursor:
    """``changes_since`` reports exactly what moved after a cursor."""

    def test_sees_a_change_committed_through_another_handle(self, tmp_path):
        path = tmp_path / "cursor.sqlite"
        tasks = [_task(seed=s) for s in range(3)]
        with TaskQueue(path) as reader, TaskQueue(path) as writer:
            writer.enqueue(tasks)
            cursor = reader.last_seq()
            assert reader.changes_since(cursor) == ([], cursor)
            leased = writer.lease("w1")
            writer.complete(leased.key, "w1", computed=True)
            changed, after = reader.changes_since(cursor)
            assert [(r.key, r.status) for r in changed] == \
                [(leased.key, "done")]  # one row, in its latest state
            assert after > cursor
            assert reader.changes_since(after) == ([], after)

    def test_multi_row_reclaim_advances_the_cursor(self, tmp_path):
        clock = FakeClock(100.0)
        tasks = [_task(seed=s) for s in range(3)]
        with TaskQueue(tmp_path / "reclaim.sqlite", lease_s=10.0,
                       clock=clock) as queue:
            queue.enqueue(tasks)
            leased = {queue.lease(worker).key for worker in ("w1", "w2")}
            cursor = queue.last_seq()
            assert queue.reclaim_expired() == 0
            assert queue.changes_since(cursor) == ([], cursor)
            clock.advance(11.0)
            assert queue.reclaim_expired() == 2
            changed, after = queue.changes_since(cursor)
            assert {r.key for r in changed} == leased
            assert {r.status for r in changed} == {"queued"}
            assert after > cursor

    def test_cancelled_rows_do_not_hand_their_stamp_on(self, tmp_path):
        """Deleting the newest row must not let the next change reuse
        its stamp — a poller past that stamp would never see it."""
        first, second = _task(seed=0), _task(seed=1)
        with TaskQueue(tmp_path / "cancel.sqlite") as queue:
            queue.enqueue([first])
            queue.enqueue([second])
            cursor = queue.last_seq()
            assert queue.cancel_queued([second.cache_key()]) == 1
            leased = queue.lease("w1")
            assert [r.key for r in queue.changes_since(cursor)[0]] == \
                [leased.key]


class TestIndexOrderedLease:
    def test_expired_lease_older_than_the_queued_head_wins(self, tmp_path):
        old, fresh = _task(seed=0), _task(seed=1)
        clock = FakeClock(100.0)
        with TaskQueue(tmp_path / "order.sqlite", lease_s=10.0,
                       clock=clock) as queue:
            queue.enqueue([old])
            assert queue.lease("w1").key == old.cache_key()
            clock.advance(5.0)
            queue.enqueue([fresh])
            # At 111 w1's lease on the older task has expired; reclaimed,
            # it keeps its place ahead of the younger queued head, and w2
            # takes it over first.
            clock.advance(6.0)
            queue.reclaim_expired()
            taken = queue.lease("w2")
            assert taken.key == old.cache_key() and taken.attempts == 2
            assert queue.lease("w2").key == fresh.cache_key()

    def test_lease_probes_walk_the_index_without_sorting(self, tmp_path):
        params = {"worker": "w", "grace_before": 0.0, "max_attempts": 3}
        with TaskQueue(tmp_path / "plan.sqlite") as queue:
            queue.enqueue([_task(seed=s) for s in range(20)])
            plan = " | ".join(
                row[-1] for row in queue._conn.execute(
                    "EXPLAIN QUERY PLAN " + _LEASE_SQL, params))
            assert "idx_task_queue_status" in plan, plan
            assert "TEMP B-TREE" not in plan, plan
