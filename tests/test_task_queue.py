"""The distributed work queue: leases, crash recovery, cross-process dedup.

The contracts that matter for N workers sharing one store file:

* a lease is exclusive — two workers can never claim the same row;
* a crashed worker's lease expires, the task requeues with the dead
  worker excluded, and a task that keeps killing workers stops retrying
  after ``max_attempts``;
* publish is atomic: a drain loop's queue is bound to its store, and the
  result INSERT, the row's turn to ``done`` and the change-counter advance
  commit in one transaction, or roll back together;
* an idle poll takes no write lock: reclaim and lease read first;
* dedup is store-mediated: a key whose result is already published is
  completed without computing, so ``compute_count == 1`` for every key no
  matter how many workers drain the queue (verified across real
  subprocesses below; everything passes on a 1-CPU container);
* budgets travel with the work: the submitter stamps ``budget_s`` on the
  row, whichever worker leases it enforces it (post-hoc, result still
  published, overrun surfaced in the result meta);
* every state transition stamps a commit-ordered change counter, so a
  poller reading ``changes_since`` its last cursor misses nothing;
* a lease is two ordered index probes, never a sort of the table;
* an outdated on-disk queue schema self-heals on open, preserving store
  results and re-arming in-flight work.

Faults are injected with ``repro.testing`` (chaos workers, FakeClock) —
no ``time.sleep``-based assertions: lease expiry is driven by advancing
an injected clock or passing explicit ``now`` values.
"""

from __future__ import annotations

import os
import pickle
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
from repro.runtime.backends.queue import process_lease
from repro.runtime.worker import drain
from repro.store import QUEUE_SCHEMA_VERSION, ResultStore, TaskQueue
from repro.store import result_store
from repro.store.task_queue import _LEASE_EXPIRED_SQL, _LEASE_QUEUED_SQL
from repro.testing import FakeClock


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
            queue.enqueue(tasks, now=100.0)
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
            queue.enqueue(tasks, now=100.0)
            leased = queue.lease("w1", now=100.0)
            assert queue.requeue([t.cache_key() for t in tasks],
                                 now=100.0) == 0
            (row,) = queue.rows([leased.key])
            assert row.status == "leased"  # the active lease survived

    def test_cancel_queued_spares_leased_and_done(self, tmp_path):
        tasks = [_task(seed=s) for s in range(3)]
        keys = [t.cache_key() for t in tasks]
        with TaskQueue(tmp_path / "q.sqlite") as queue:
            queue.enqueue(tasks, now=100.0)
            leased = queue.lease("w1")
            queue.cancel_queued(keys)
            statuses = {row.key: row.status for row in queue.rows()}
            assert statuses == {leased.key: "leased"}  # queued rows dropped


class TestBudgets:
    """Per-task ``budget_s`` travels on the queue row, not on the worker."""

    def test_budget_travels_from_enqueue_to_lease(self, tmp_path):
        tasks = [_task(seed=s) for s in range(2)]
        with TaskQueue(tmp_path / "b.sqlite") as queue:
            queue.enqueue(tasks, budgets=[2.5, None])
            by_key = {r.key: r for r in queue.rows()}
            assert by_key[tasks[0].cache_key()].budget_s == 2.5
            assert by_key[tasks[1].cache_key()].budget_s is None
            first = queue.lease("w1")
            assert first.key == tasks[0].cache_key()
            assert first.budget_s == 2.5
            assert queue.lease("w1").budget_s is None

    def test_budgets_must_align_with_tasks(self, tmp_path):
        with TaskQueue(tmp_path / "b.sqlite") as queue:
            with pytest.raises(ValueError):
                queue.enqueue([_task()], budgets=[1.0, 2.0])

    def test_enqueue_rearm_of_failed_row_updates_budget(self, tmp_path):
        task = _task()
        with TaskQueue(tmp_path / "b.sqlite") as queue:
            queue.enqueue([task], budgets=[1.0])
            leased = queue.lease("w1")
            queue.fail(leased.key, "w1", "ValueError: nope")
            assert queue.enqueue([task], budgets=[9.0]) == [leased.key]
            (row,) = queue.rows([leased.key])
            assert row.status == "queued" and row.budget_s == 9.0

    def test_budgetless_rearm_of_failed_row_keeps_the_budget(self, tmp_path):
        """A bare re-submission must not strip the task's budget — the
        budget describes the task, not the attempt (same rule requeue
        follows for done rows)."""
        task = _task()
        with TaskQueue(tmp_path / "b.sqlite") as queue:
            queue.enqueue([task], budgets=[7.0])
            leased = queue.lease("w1")
            queue.fail(leased.key, "w1", "ValueError: nope")
            assert queue.enqueue([task]) == [leased.key]  # no budgets kwarg
            (row,) = queue.rows([leased.key])
            assert row.status == "queued" and row.budget_s == 7.0

    def test_first_submitters_budget_wins_while_row_is_live(self, tmp_path):
        task = _task()
        with TaskQueue(tmp_path / "b.sqlite") as queue:
            queue.enqueue([task], budgets=[3.0])
            assert queue.enqueue([task], budgets=[99.0]) == []
            (row,) = queue.rows([task.cache_key()])
            assert row.budget_s == 3.0

    def test_requeue_keeps_the_budget(self, tmp_path):
        """The budget describes the task, not the attempt: a re-armed done
        row (store-evicted result) is recomputed under the same budget."""
        task = _task()
        with TaskQueue(tmp_path / "b.sqlite") as queue:
            queue.enqueue([task], budgets=[4.0])
            leased = queue.lease("w1")
            queue.complete(leased.key, "w1", computed=True)
            assert queue.requeue([leased.key]) == 1
            assert queue.lease("w2").budget_s == 4.0


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
    def test_expired_lease_is_reclaimed_with_exclusion(self, tmp_path):
        task = _task()
        with TaskQueue(tmp_path / "q.sqlite", lease_s=10.0) as queue:
            queue.enqueue([task], now=100.0)
            leased = queue.lease("w1", now=100.0)
            assert queue.reclaim_expired(now=105.0) == 0  # still live
            assert queue.reclaim_expired(now=111.0) == 1  # expired: requeued
            (row,) = queue.rows([leased.key])
            assert row.status == "queued"
            assert row.excluded_worker == "w1"  # presumed-dead worker

    def test_excluded_worker_cannot_reclaim_its_own_casualty(self, tmp_path):
        task = _task()
        with TaskQueue(tmp_path / "q.sqlite", lease_s=10.0) as queue:
            queue.enqueue([task], now=100.0)
            queue.lease("w1", now=100.0)
            queue.reclaim_expired(now=111.0)
            assert queue.lease("w1", now=112.0) is None  # excluded
            other = queue.lease("w2", now=112.0)  # someone else's second try
            assert other is not None and other.attempts == 2

    def test_exclusion_expires_after_a_grace_period(self, tmp_path):
        """A single-worker fleet must not starve its own casualty: once a
        requeued row sat unclaimed for a full lease_s, the excluded worker
        may take it after all."""
        task = _task()
        with TaskQueue(tmp_path / "q.sqlite", lease_s=10.0) as queue:
            queue.enqueue([task], now=100.0)
            queue.lease("w1", now=100.0)
            queue.reclaim_expired(now=111.0)  # requeued, excluded_worker=w1
            assert queue.lease("w1", now=115.0) is None  # inside the grace
            retaken = queue.lease("w1", now=121.5)  # 10s unclaimed: eligible
            assert retaken is not None and retaken.attempts == 2

    def test_own_expired_lease_is_not_directly_reclaimable(self, tmp_path):
        task = _task()
        with TaskQueue(tmp_path / "q.sqlite", lease_s=10.0) as queue:
            queue.enqueue([task], now=100.0)
            queue.lease("w1", now=100.0)
            # Without an intervening reclaim sweep, the expired lease is
            # claimable by w2 (crash takeover) but not by w1 itself.
            assert queue.lease("w1", now=111.0) is None
            assert queue.lease("w2", now=111.0) is not None

    def test_attempt_cap_fails_the_task(self, tmp_path):
        task = _task()
        with TaskQueue(tmp_path / "q.sqlite", lease_s=10.0,
                       max_attempts=2) as queue:
            queue.enqueue([task], now=100.0)
            now = 100.0
            for worker in ("w1", "w2"):  # two attempts, two crashes
                leased = queue.lease(worker, now=now)
                assert leased is not None
                now += 11.0
            queue.reclaim_expired(now=now)
            (row,) = queue.rows([task.cache_key()])
            assert row.status == "failed"
            assert row.attempts == 2
            assert "attempt cap" in row.error
            assert queue.lease("w3", now=now) is None


def _hold_write_lock(path) -> sqlite3.Connection:
    """A second connection holding the file's write lock until closed."""
    holder = sqlite3.connect(str(path))
    holder.execute("BEGIN IMMEDIATE")
    return holder


class TestAtomicPublish:
    """``complete(..., publish=(task, result))`` on a bound queue: the
    result and the ``done`` row commit together or not at all."""

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

    def test_unbound_queue_refuses_to_publish(self, tmp_path):
        path = tmp_path / "unbound.sqlite"
        task = _task()
        with ResultStore(path) as store, TaskQueue(path) as queue:
            queue.enqueue([task])
            leased = queue.lease("w1")
            t0 = time.monotonic()
            with pytest.raises(ValueError, match="bound to its store"):
                queue.complete(leased.key, "w1", computed=True,
                               publish=(task, _result_for(task)))
            assert time.monotonic() - t0 < 1.0
            assert len(store) == 0
            assert queue.rows([leased.key])[0].status == "leased"

    def test_drain_loops_refuse_an_unbound_queue_before_leasing(self,
                                                                tmp_path):
        path = tmp_path / "unbound.sqlite"
        task = _task()
        with ResultStore(path) as store, TaskQueue(path) as queue, \
                ResultStore(tmp_path / "other.sqlite") as other:
            queue.enqueue([task])
            with pytest.raises(ValueError, match="bound to its store"):
                drain(store, queue, "w1", idle_exit=0.0, poll_s=0.01)
            with TaskQueue(other) as elsewhere:
                with pytest.raises(ValueError, match="bound to its store"):
                    drain(store, elsewhere, "w1", idle_exit=0.0, poll_s=0.01)
            assert queue.rows([task.cache_key()])[0].status == "queued"
            leased = queue.lease("w1")
            with pytest.raises(ValueError, match="bound to its store"):
                process_lease(queue, leased, "w1", task=task)
            assert len(store) == 0
            assert queue.rows([leased.key])[0].compute_count == 0

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
            stats = drain(store, queue, "w1", idle_exit=0.0, poll_s=0.01)
            assert stats == {"computed": 3, "deduped": 0, "failed": 0,
                             "overtime": 0}
            assert queue.counts()["done"] == 3
            for task in tasks:
                assert store.get(task) is not None

    def test_drain_dedups_against_the_store(self, tmp_path):
        path = tmp_path / "dedup.sqlite"
        tasks = [_task(seed=s) for s in range(2)]
        with ResultStore(path) as store, TaskQueue(store) as queue:
            store.put(tasks[0], _result_for(tasks[0]))  # already published
            queue.enqueue(tasks)
            stats = drain(store, queue, "w1", idle_exit=0.0, poll_s=0.01)
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
                stats = drain(store, queue, "w1", idle_exit=0.0, poll_s=0.01)
                assert stats["failed"] == 1
                (row,) = queue.rows([task.cache_key()])
                assert row.status == "failed"
                assert "queue failure" in row.error
                assert len(store) == 0  # failures never reach the store
        finally:
            unregister_algorithm(name)

    def test_drain_enforces_the_rows_travelling_budget(self, tmp_path):
        """Budgets ride the queue row, not a worker flag: a task whose
        ``budget_s`` is blown is still published and completed (post-hoc
        check — a failed row would permanently break the key for every
        submitter), counted as overtime, with the budget surfaced in the
        result meta."""
        name = "test-queue-sleeper"

        @register_algorithm(name, tags=("test",))
        def _sleeper(instance: Instance) -> AlgorithmResult:
            time.sleep(0.05)
            _, schedule = greedy_upper_bound(instance)
            return AlgorithmResult.from_schedule(name, schedule)

        try:
            path = tmp_path / "budget.sqlite"
            over = _task(algorithm=name, seed=0)
            within = _task(algorithm=name, seed=1)
            with ResultStore(path) as store, TaskQueue(store) as queue:
                queue.enqueue([over, within], budgets=[0.01, 30.0])
                stats = drain(store, queue, "w1", idle_exit=0.0, poll_s=0.01)
                assert stats["overtime"] == 1 and stats["computed"] == 2
                assert stats["failed"] == 0
                for task in (over, within):
                    (row,) = queue.rows([task.cache_key()])
                    assert row.status == "done"
                blown = store.get(over)
                assert blown.meta["budget_s"] == 0.01
                assert blown.meta["over_budget"] is True
                assert blown.meta["budget_elapsed_s"] > 0.01
                fine = store.get(within)
                assert fine.meta["budget_s"] == 30.0
                assert "over_budget" not in fine.meta
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
        worker with the dead one excluded.  Expiry is driven by explicit
        ``now`` values, not by sleeping through wall-clock time."""
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
        with TaskQueue(path, lease_s=30.0) as queue:
            (row,) = queue.rows([key])
            assert row.status == "leased"  # the crash left the lease behind
            assert row.owner == "crashy-worker"
            now = time.time()
            assert queue.reclaim_expired(now=now) == 0  # lease still live
            expired = now + 31.0
            assert queue.reclaim_expired(now=expired) == 1
            (row,) = queue.rows([key])
            assert row.status == "queued"
            assert row.excluded_worker == "crashy-worker"
            assert queue.lease("crashy-worker", now=expired) is None
            takeover = queue.lease("healthy-worker", now=expired)
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
        with ResultStore(path) as store, \
                TaskQueue(store, lease_s=30.0) as queue:
            assert not store.contains(key)
            (row,) = queue.rows([key])
            assert row.status == "leased" and row.owner == "crashy-worker"
            assert row.compute_count == 0
            assert queue.reclaim_expired(now=time.time() + 31.0) == 1
            stats = drain(store, queue, "healthy-worker", idle_exit=0.0,
                          poll_s=0.01)
            assert stats["computed"] == 1 and stats["deduped"] == 0
            assert queue.compute_counts([key]) == {key: 1}
            assert len(store) == 1
            published = store.get(key)
        serial = BatchRunner(max_workers=1, backend="serial", cache=False)
        (expected,) = serial.run_tasks([task]).results
        assert published.makespan == expected.makespan


def _results_rows(path) -> list:
    """Every ``results`` row, payload included, straight from SQLite."""
    conn = sqlite3.connect(str(path))
    try:
        return conn.execute("SELECT * FROM results ORDER BY key").fetchall()
    finally:
        conn.close()


def _stamped_version(path) -> str:
    conn = sqlite3.connect(str(path))
    try:
        return conn.execute(
            "SELECT value FROM task_queue_meta"
            " WHERE key = 'queue_schema_version'").fetchone()[0]
    finally:
        conn.close()


class TestSchemaMigration:
    """Opening a queue of another layout rebuilds it empty; the stored
    results — the real computed value — are never touched."""

    #: The v1 layout: no ``budget_s`` column, no ``task_queue_meta``.
    V1_SCHEMA = """
    CREATE TABLE task_queue (
        key             TEXT PRIMARY KEY,
        task_payload    BLOB NOT NULL,
        status          TEXT NOT NULL DEFAULT 'queued',
        owner           TEXT,
        lease_expires_at REAL,
        attempts        INTEGER NOT NULL DEFAULT 0,
        compute_count   INTEGER NOT NULL DEFAULT 0,
        excluded_worker TEXT,
        error           TEXT,
        enqueued_at     REAL NOT NULL,
        updated_at      REAL NOT NULL
    );
    CREATE INDEX idx_task_queue_status ON task_queue (status, enqueued_at);
    """

    def _make_v1_file(self, path, queued, done, leased):
        """A store file whose queue uses the v1 schema: one stored
        result for ``done``, plus rows in the given states."""
        with ResultStore(path) as store:
            store.put(done, _result_for(done))
        conn = sqlite3.connect(str(path))
        conn.executescript(self.V1_SCHEMA)
        conn.executemany(
            "INSERT INTO task_queue (key, task_payload, status, attempts,"
            " compute_count, owner, lease_expires_at, enqueued_at, updated_at)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, 100.0, 100.0)",
            [(queued.cache_key(), pickle.dumps(queued), "queued", 0, 0,
              None, None),
             (done.cache_key(), pickle.dumps(done), "done", 1, 1,
              "old-worker", None),
             (leased.cache_key(), pickle.dumps(leased), "leased", 1, 0,
              "dead-worker", 12345.0)])
        conn.commit()
        conn.close()

    def _assert_rebuilt(self, path, stored):
        """Open ``path``: the queue comes back empty and stamped current,
        ``results`` is byte-identical, and re-running the ``stored`` tasks
        is served from the store with zero computes."""
        before = _results_rows(path)
        assert len(before) == len(stored)
        with TaskQueue(path) as queue:
            assert queue.rows() == []
        assert _stamped_version(path) == str(QUEUE_SCHEMA_VERSION)
        assert _results_rows(path) == before

        runner = BatchRunner(max_workers=1, store=path, backend="queue",
                             backend_options={"stall_timeout_s": 30.0})
        batch = runner.run_tasks(stored).raise_for_failures()
        runner.store.close()
        assert runner.stats["store_hits"] == len(stored)
        assert [r.makespan for r in batch.results] == \
            [_result_for(t).makespan for t in stored]
        with TaskQueue(path) as queue:
            assert queue.rows() == []  # nothing was enqueued, let alone run

    def test_pre_budget_queue_migrates_preserving_store_and_work(self, tmp_path):
        path = tmp_path / "old.sqlite"
        queued, done, leased = _task(seed=0), _task(seed=1), _task(seed=2)
        self._make_v1_file(path, queued, done, leased)
        self._assert_rebuilt(path, [done])

    def test_unversioned_meta_table_triggers_migration(self, tmp_path):
        """A current-columns table without a version stamp is rebuilt too
        (covers files written by hypothetical intermediate builds)."""
        path = tmp_path / "stampless.sqlite"
        done, queued = _task(seed=3), _task(seed=4)
        with ResultStore(path) as store:
            store.put(done, _result_for(done))
        with TaskQueue(path) as queue:
            queue.enqueue([queued], budgets=[5.0])
        conn = sqlite3.connect(str(path))
        conn.execute("DELETE FROM task_queue_meta")
        conn.commit()
        conn.close()
        self._assert_rebuilt(path, [done])

    @pytest.mark.parametrize("version, later_columns", [
        (2, ""),                        # budget_s, no prediction column
        (3, "predicted_s REAL,"),       # no seq change stamp
        (4, "predicted_s REAL, seq INTEGER NOT NULL DEFAULT 0,"),
    ], ids=["v2", "v3", "v4"])
    def test_versioned_queue_migrates_to_current(self, tmp_path, version,
                                                 later_columns):
        """A file from an older versioned layout is rebuilt empty, and the
        columns added since are live afterwards."""
        path = tmp_path / f"v{version}.sqlite"
        queued, done = _task(seed=10), _task(seed=11)
        with ResultStore(path) as store:
            store.put(done, _result_for(done))
        change_seq = ("INSERT INTO task_queue_meta VALUES ('change_seq', '7');"
                      if version >= 4 else "")
        conn = sqlite3.connect(str(path))
        conn.executescript(f"""
        CREATE TABLE task_queue (
            key             TEXT PRIMARY KEY,
            task_payload    BLOB NOT NULL,
            status          TEXT NOT NULL DEFAULT 'queued',
            owner           TEXT,
            lease_expires_at REAL,
            attempts        INTEGER NOT NULL DEFAULT 0,
            compute_count   INTEGER NOT NULL DEFAULT 0,
            excluded_worker TEXT,
            error           TEXT,
            budget_s        REAL,
            {later_columns}
            enqueued_at     REAL NOT NULL,
            updated_at      REAL NOT NULL
        );
        CREATE TABLE task_queue_meta (key TEXT PRIMARY KEY,
                                      value TEXT NOT NULL);
        INSERT INTO task_queue_meta VALUES ('queue_schema_version',
                                            '{version}');
        {change_seq}
        """)
        conn.executemany(
            "INSERT INTO task_queue (key, task_payload, status, budget_s,"
            " compute_count, enqueued_at, updated_at)"
            " VALUES (?, ?, ?, ?, ?, 100.0, 100.0)",
            [(queued.cache_key(), pickle.dumps(queued), "queued", 9.0, 0),
             (done.cache_key(), pickle.dumps(done), "done", None, 1)])
        conn.commit()
        conn.close()
        self._assert_rebuilt(path, [done])
        fresh = _task(seed=12)
        with TaskQueue(path) as queue:
            cursor = queue.last_seq()
            queue.enqueue([fresh], budgets=[0.25])
            assert [r.key for r in queue.changes_since(cursor)[0]] == \
                [fresh.cache_key()]
        with TaskQueue(path) as queue:  # current now: no second rebuild
            (row,) = queue.rows()
            assert row.key == fresh.cache_key() and row.budget_s == 0.25

    def test_concurrent_opener_keeps_rows_enqueued_after_the_rebuild(
            self, tmp_path, monkeypatch):
        """Two processes open the same old file: the one whose probe saw
        the old layout must re-check under the write lock, not drop the
        rows the other enqueued after its rebuild."""
        path = tmp_path / "race.sqlite"
        self._make_v1_file(path, _task(seed=20), _task(seed=21),
                                _task(seed=22))
        fresh = _task(seed=23)
        with TaskQueue(path) as first:
            first.enqueue([fresh])
        probes = []
        current = TaskQueue._schema_current

        def stale_first_probe(queue):
            probes.append(queue)
            return False if len(probes) == 1 else current(queue)

        monkeypatch.setattr(TaskQueue, "_schema_current", stale_first_probe)
        with TaskQueue(path) as second:
            assert [r.key for r in second.rows()] == [fresh.cache_key()]
        assert len(probes) == 2


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
        with TaskQueue(tmp_path / "order.sqlite", lease_s=10.0) as queue:
            queue.enqueue([old], now=100.0)
            assert queue.lease("w1", now=100.0).key == old.cache_key()
            queue.enqueue([fresh], now=105.0)
            # At 111 w1's lease on the older task has expired; w2 takes
            # that over before the younger queued head.
            taken = queue.lease("w2", now=111.0)
            assert taken.key == old.cache_key() and taken.attempts == 2
            assert queue.lease("w2", now=111.0).key == fresh.cache_key()

    def test_lease_probes_walk_the_index_without_sorting(self, tmp_path):
        params = {"now": 0.0, "worker": "w", "grace_before": 0.0,
                  "max_attempts": 3}
        with TaskQueue(tmp_path / "plan.sqlite") as queue:
            queue.enqueue([_task(seed=s) for s in range(20)])
            for sql in (_LEASE_QUEUED_SQL, _LEASE_EXPIRED_SQL):
                plan = " | ".join(
                    row[-1] for row in queue._conn.execute(
                        "EXPLAIN QUERY PLAN " + sql, params))
                assert "idx_task_queue_status" in plan, plan
                assert "TEMP B-TREE" not in plan, plan
