"""The worker supervisor: policy decisions, fleet mechanics, fault soak.

Three layers, matching the design split:

* ``TestSupervisorPolicy`` — every scaling/restart decision, tested
  purely in-process against a :class:`~repro.testing.FakeClock` and
  stubbed queue counts: zero subprocesses, zero sleeps;
* ``TestSubmitterBudgets`` — the queue backend's budget-stamping policy
  (explicit timeout beats cost model beats unbudgeted) observed straight
  on the queue rows;
* ``TestSupervisorSmoke`` / ``TestSupervisorSoak`` — the real mechanism:
  subprocess fleets over a shared store file, the soak (slow lane) under
  injected crashes and stalls with a fleet capped at 2 (CI runs on one
  CPU).
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import result_digest
from repro.generators import uniform_instance
from repro.runtime import BatchRunner, BatchTask, Supervisor, SupervisorPolicy
from repro.runtime.backends.queue import QueueBackend
from repro.store import ResultStore, TaskQueue
from repro.testing import FakeClock


def _tasks(count: int, *, algorithm: str = "class-aware-greedy",
           n: int = 16, seed0: int = 0):
    return [BatchTask.make(algorithm,
                           uniform_instance(n, 3, 3, seed=seed0 + s,
                                            integral=True))
            for s in range(count)]


def _policy(clock, **overrides) -> SupervisorPolicy:
    defaults = dict(max_workers=2, idle_grace_s=1.0, restart_backoff_s=0.5,
                    restart_cap=3, clock=clock)
    defaults.update(overrides)
    return SupervisorPolicy(**defaults)


class TestSupervisorPolicy:
    """Pure decision logic: FakeClock in, worker-count deltas out."""

    def test_spawns_one_worker_per_outstanding_task_up_to_cap(self):
        policy = _policy(FakeClock())
        assert policy.scale(queued=5, leased=0, live=0) == 2  # capped
        assert policy.scale(queued=1, leased=0, live=0) == 1
        assert policy.scale(queued=0, leased=1, live=1) == 0  # satisfied
        assert policy.scale(queued=1, leased=1, live=1) == 1  # top up

    def test_never_culls_busy_workers(self):
        """More live workers than outstanding tasks while work remains is
        a hold, not a retirement — busy workers finish what they hold."""
        policy = _policy(FakeClock())
        assert policy.scale(queued=0, leased=1, live=2) == 0

    def test_retires_only_after_the_idle_grace_elapses(self):
        clock = FakeClock()
        policy = _policy(clock, idle_grace_s=2.0)
        assert policy.scale(queued=0, leased=0, live=2) == 0  # grace starts
        clock.advance(1.9)
        assert policy.scale(queued=0, leased=0, live=2) == 0  # still inside
        clock.advance(0.2)
        assert policy.scale(queued=0, leased=0, live=2) == -2  # retire all

    def test_work_arriving_during_the_grace_resets_it(self):
        clock = FakeClock()
        policy = _policy(clock, idle_grace_s=2.0)
        policy.scale(queued=0, leased=0, live=1)
        clock.advance(1.5)
        assert policy.scale(queued=3, leased=0, live=1) == 1  # busy again
        clock.advance(1.0)  # idle clock must have restarted, not resumed
        assert policy.scale(queued=0, leased=0, live=1) == 0
        clock.advance(2.1)
        assert policy.scale(queued=0, leased=0, live=1) == -1

    def test_crash_restart_waits_out_an_exponential_backoff(self):
        clock = FakeClock()
        policy = _policy(clock, restart_backoff_s=0.5)
        assert policy.record_exit(9) == "crashed"
        assert policy.scale(queued=4, leased=0, live=0) == 0  # 0.5s backoff
        clock.advance(0.6)
        assert policy.scale(queued=4, leased=0, live=0) == 2
        assert policy.record_exit(9) == "crashed"
        clock.advance(0.6)  # second crash: backoff doubled to 1.0s
        assert policy.scale(queued=4, leased=0, live=0) == 0
        clock.advance(0.5)
        assert policy.scale(queued=4, leased=0, live=0) == 2

    def test_restart_cap_stops_a_crash_loop(self):
        clock = FakeClock()
        policy = _policy(clock, restart_cap=3)
        for _ in range(3):
            policy.record_exit(9)
            clock.advance(5.0)  # backoff never the limiter here
        assert policy.exhausted
        assert policy.scale(queued=10, leased=0, live=0) == 0  # given up

    def test_clean_exit_resets_the_crash_counter(self):
        clock = FakeClock()
        policy = _policy(clock, restart_cap=3)
        policy.record_exit(9)
        policy.record_exit(9)
        assert policy.record_exit(0) == "retired"
        assert policy.crashes == 0 and not policy.exhausted

    def test_task_progress_resets_the_crash_counter(self):
        """Crashing *between* completed tasks is unhealthy, not hopeless:
        observed progress (done count rising) clears the loop detector so
        a fleet that dies every N tasks still finishes the queue."""
        clock = FakeClock()
        policy = _policy(clock, restart_cap=3)
        policy.note_progress(done=0)
        for done in (3, 6, 9):
            policy.record_exit(9)
            policy.note_progress(done=done)
            assert policy.crashes == 0
        assert not policy.exhausted
        clock.advance(0.0)
        assert policy.scale(queued=2, leased=0, live=0) == 2  # no backoff

    def test_progress_note_without_movement_changes_nothing(self):
        clock = FakeClock()
        policy = _policy(clock)
        policy.note_progress(done=5)
        policy.record_exit(9)
        policy.note_progress(done=5)  # same count: not progress
        assert policy.crashes == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(max_workers=0)
        with pytest.raises(ValueError):
            SupervisorPolicy(max_workers=1, restart_cap=0)


class TestSubmitterBudgets:
    """The queue backend stamps per-task budgets onto the rows it arms."""

    def test_runner_timeout_becomes_every_rows_budget(self, tmp_path):
        path = tmp_path / "budget.sqlite"
        tasks = _tasks(3)
        runner = BatchRunner(max_workers=1, store=path, backend="queue",
                             timeout=45.0,
                             backend_options={"poll_s": 0.01,
                                              "stall_timeout_s": 60.0})
        batch = runner.run_tasks(tasks)
        runner.store.close()
        with TaskQueue(path) as queue:
            rows = queue.rows([t.cache_key() for t in tasks])
            assert [r.budget_s for r in rows] == [45.0] * 3
        # The enforcing worker (the inline drain here) surfaced the
        # budget into every result's meta on its way into the store.
        assert all(r.meta["budget_s"] == 45.0 for r in batch.results)
        assert not any(r.meta.get("over_budget") for r in batch.results)

    def test_without_timeout_or_model_rows_travel_unbudgeted(self, tmp_path):
        path = tmp_path / "nobudget.sqlite"
        tasks = _tasks(2)
        # A cold store: the cost model has no recorded runs to fit.
        runner = BatchRunner(max_workers=1, store=path, backend="queue",
                             backend_options={"poll_s": 0.01,
                                              "stall_timeout_s": 60.0})
        batch = runner.run_tasks(tasks)
        runner.store.close()
        with TaskQueue(path) as queue:
            rows = queue.rows([t.cache_key() for t in tasks])
            assert [r.budget_s for r in rows] == [None, None]
        assert not any("budget_s" in r.meta for r in batch.results)

    def test_cost_model_predictions_set_padded_budgets(self, tmp_path):
        """With recorded wall times fitted into a cost model, each row's
        budget is budget_factor × the task's own prediction (floored at
        min_budget_s) — per-task, not per-worker."""
        path = tmp_path / "model.sqlite"
        warmup = _tasks(6, n=16, seed0=100)
        warm_runner = BatchRunner(max_workers=1, store=path, backend="serial")
        warm_runner.run_tasks(warmup)

        fresh = _tasks(2, n=16, seed0=200)
        runner = BatchRunner(max_workers=1, store=warm_runner.store,
                             backend="queue",
                             backend_options={"poll_s": 0.01,
                                              "stall_timeout_s": 60.0,
                                              "min_budget_s": 0.5,
                                              "budget_factor": 8.0})
        model = runner.cost_model()
        assert model is not None  # the warmup records fed a fit
        predicted = {t.cache_key(): model.predict_task(t) for t in fresh}
        assert all(p is not None for p in predicted.values())
        runner.run_tasks(fresh)
        runner.store.close()
        with TaskQueue(path) as queue:
            for row in queue.rows([t.cache_key() for t in fresh]):
                expected = max(0.5, 8.0 * predicted[row.key])
                assert row.budget_s == pytest.approx(expected)

    def test_autoscale_resolution(self, monkeypatch):
        """The backend reads only its kwarg; ``REPRO_AUTOSCALE`` is
        resolved by ``SessionConfig`` (see ``test_api_session``)."""
        runner = BatchRunner(max_workers=1, backend="serial")
        monkeypatch.setenv("REPRO_AUTOSCALE", "2")
        assert QueueBackend(runner).autoscale == 0
        assert QueueBackend(runner, autoscale=3).autoscale == 3
        assert QueueBackend(runner, autoscale=True).autoscale >= 1


class TestSupervisorSmoke:
    """One supervised worker drains a small grid — the tier-1 CI smoke."""

    def test_supervisor_drains_a_grid_with_one_worker(self, tmp_path):
        path = tmp_path / "smoke.sqlite"
        tasks = _tasks(4)
        with TaskQueue(path, lease_s=30.0) as queue:
            queue.enqueue(tasks, budgets=[60.0] * len(tasks))
        supervisor = Supervisor(path, max_workers=1, lease_s=30.0,
                                poll_s=0.05, idle_grace_s=0.2,
                                worker_idle_exit=2.0, worker_poll_s=0.02)
        summary = supervisor.run()
        assert summary["drained"] is True
        assert summary["spawned"] == 1 and summary["crashed"] == 0
        assert summary["retired"] == 1
        with TaskQueue(path) as queue:
            assert queue.counts()["done"] == len(tasks)
            counts = queue.compute_counts([t.cache_key() for t in tasks])
            assert all(c == 1 for c in counts.values())
        with ResultStore(path) as store:
            for task in tasks:
                result = store.get(task)
                assert result is not None
                assert result.meta["budget_s"] == 60.0

    def test_crash_loop_gives_up_instead_of_forking_forever(self, tmp_path):
        """Workers that die on arrival (broken module here) trip the
        restart cap; the supervisor exits undrained with the queued work
        intact for a healthy future fleet."""
        path = tmp_path / "loop.sqlite"
        tasks = _tasks(2, seed0=70)
        with TaskQueue(path) as queue:
            queue.enqueue(tasks)
        supervisor = Supervisor(path, max_workers=1, poll_s=0.02,
                                idle_grace_s=0.2, restart_backoff_s=0.02,
                                restart_cap=2,
                                worker_module="repro.no_such_module")
        summary = supervisor.run()
        assert summary["drained"] is False
        assert summary["crashed"] >= 2
        assert any("giving up" in event for event in supervisor.events)
        with TaskQueue(path) as queue:
            assert queue.counts()["queued"] == 2  # work survives the fiasco

    def test_dead_supervisor_surfaces_instead_of_hanging(self, tmp_path,
                                                         monkeypatch):
        """An inline=False submitter whose autoscaled supervisor dies
        without draining must raise, not poll forever."""
        import repro.runtime.supervisor as supervisor_mod
        import subprocess
        import sys

        def fake_spawn(store_path, **kwargs):
            return subprocess.Popen([sys.executable, "-c",
                                     "import sys; sys.exit(3)"])

        monkeypatch.setattr(supervisor_mod, "spawn_supervisor", fake_spawn)
        path = tmp_path / "dead.sqlite"
        runner = BatchRunner(max_workers=1, store=path, backend="queue",
                             backend_options={"inline": False,
                                              "poll_s": 0.02,
                                              "stall_timeout_s": 60.0,
                                              "autoscale": 1})
        with pytest.raises(RuntimeError, match="supervisor exited rc=3"):
            runner.run_tasks(_tasks(2, seed0=80))
        runner.store.close()

    def test_autoscale_replaces_manual_workers_entirely(self, tmp_path):
        """``QueueBackend(autoscale=1)``: the submitter is a pure
        coordinator (``inline=False``) and still gets every result — the
        supervisor it spawned ran the whole fleet."""
        path = tmp_path / "auto.sqlite"
        tasks = _tasks(3, seed0=50)
        runner = BatchRunner(max_workers=1, store=path, backend="queue",
                             timeout=60.0,
                             backend_options={"inline": False,
                                              "poll_s": 0.02,
                                              "stall_timeout_s": 120.0,
                                              "autoscale": 1})
        batch = runner.run_tasks(tasks).raise_for_failures()
        runner.store.close()
        assert len(batch.results) == len(tasks)
        with TaskQueue(path) as queue:
            counts = queue.compute_counts([t.cache_key() for t in tasks])
            assert all(c == 1 for c in counts.values())
            # Nothing was computed inline: every owner is a supervised
            # worker, and the submitter's budget rode along to it.
            for row in queue.rows([t.cache_key() for t in tasks]):
                assert row.owner.startswith("sup-")
                assert row.budget_s == 60.0


@pytest.mark.slow
class TestSupervisorSoak:
    """Supervisor + 2 chaos workers over a ~40-task grid (slow lane)."""

    def test_soak_crashes_and_stalls_never_break_the_invariants(self, tmp_path):
        budget_s = 120.0
        instances = [uniform_instance(24, 3, 4, seed=9000 + s, integral=True)
                     for s in range(20)]
        tasks = [BatchTask.make(name, inst)
                 for inst in instances
                 for name in ("class-aware-greedy", "lpt-with-setups")]
        assert len(tasks) == 40

        serial = BatchRunner(max_workers=1, backend="serial", cache=False)
        serial_batch = serial.run_tasks(tasks).raise_for_failures()

        path = tmp_path / "soak.sqlite"
        with TaskQueue(path, lease_s=20.0) as queue:
            queue.enqueue(tasks, budgets=[budget_s] * len(tasks))
        supervisor = Supervisor(
            path, max_workers=2, lease_s=20.0, poll_s=0.05,
            idle_grace_s=0.3, restart_backoff_s=0.1, restart_cap=60,
            worker_module="repro.testing.chaos",
            # Crash every 7 completed tasks (never divides 40: the last
            # incarnations survive to be retired) and stall each
            # incarnation's first lease briefly — inside the lease, so the
            # stall delays but never forfeits the task.
            worker_args=["--crash-after", "7", "--stall-s", "0.2"],
            worker_idle_exit=2.0, worker_poll_s=0.02)
        summary = supervisor.run()

        assert summary["drained"] is True
        assert summary["crashed"] >= 1 and summary["restarts"] >= 1
        assert summary["retired"] >= 1
        assert summary["spawned"] >= 2

        # Exactly-once compute across every incarnation of the fleet.
        with TaskQueue(path) as queue:
            assert queue.counts()["failed"] == 0
            counts = queue.compute_counts(
                sorted({t.cache_key() for t in tasks}))
            assert all(c == 1 for c in counts.values()), counts

        # Byte-identical digests vs the serial reference, and every
        # row's budget respected (travelled, surfaced, never blown).
        with ResultStore(path) as store:
            warm = store.prefetch(tasks)
        results = [warm[t.cache_key()] for t in tasks]
        assert result_digest(results) == result_digest(serial_batch.results)
        for result in results:
            assert result.meta["budget_s"] == budget_s
            assert "over_budget" not in result.meta
