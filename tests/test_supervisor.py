"""The worker supervisor: policy decisions, fleet mechanics, fault soak.

Three layers, matching the design split:

* ``TestSupervisorPolicy`` — every scaling/restart decision, tested
  purely in-process against a :class:`~repro.testing.FakeClock` and
  stubbed queue counts: zero subprocesses, zero sleeps;
* ``TestSubmitterBudgets`` — the queue backend's options, and the
  submitter's ``timeout`` staying out of queue rows and stored results;
* ``TestSupervisorSmoke`` / ``TestSupervisorSoak`` — the real mechanism:
  subprocess fleets over a shared store file, the soak (slow lane) under
  injected crashes and stalls with a fleet capped at 2 (CI runs on one
  CPU);
* ``TestResultDigest`` — the digest the soak compares against the serial
  reference.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.core.schedule import Schedule
from repro.generators import uniform_instance
from repro.runtime import BatchRunner, BatchTask, Supervisor, SupervisorPolicy
from repro.runtime.backends.queue import QueueBackend
from repro.runtime.worker import drain
from repro.store import ResultStore, TaskQueue
from repro.testing import FakeClock, result_digest


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

    # A nan backoff waits the 30 s maximum after the first crash, since
    # min(30, nan) is 30; a nan grace never retires an idle fleet.
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0,
                                     None, True], ids=repr)
    @pytest.mark.parametrize("field", ["idle_grace_s", "restart_backoff_s"])
    def test_bad_durations_are_rejected_naming_the_field(self, field, bad):
        with pytest.raises(ValueError, match=field):
            _policy(FakeClock(), **{field: bad})

    def test_zero_durations_mean_no_wait(self):
        clock = FakeClock()
        policy = _policy(clock, idle_grace_s=0.0, restart_backoff_s=0.0)
        assert policy.record_exit(9) == "crashed"
        assert policy.scale(queued=2, leased=0, live=0) == 2  # no backoff
        assert policy.scale(queued=0, leased=0, live=2) == 0  # idle from now
        assert policy.scale(queued=0, leased=0, live=2) == -2  # no grace


class TestSupervisorArguments:
    @pytest.mark.parametrize("field, bad", [
        ("lease_s", 0.0), ("lease_s", float("nan")),
        ("poll_s", -1.0), ("poll_s", float("nan")), ("poll_s", float("inf")),
        ("worker_poll_s", 0.0), ("worker_poll_s", float("nan")),
        ("worker_idle_exit", -1.0), ("worker_idle_exit", float("nan")),
        ("worker_idle_exit", float("inf")),
        ("idle_grace_s", float("nan")), ("restart_backoff_s", -1.0),
    ], ids=repr)
    def test_bad_durations_are_rejected_naming_the_field(self, tmp_path,
                                                         field, bad):
        with pytest.raises(ValueError, match=field):
            Supervisor(tmp_path / "s.sqlite", max_workers=1, **{field: bad})

    def test_zero_poll_and_idle_exit_are_valid(self, tmp_path):
        supervisor = Supervisor(tmp_path / "s.sqlite", max_workers=1,
                                poll_s=0.0, worker_idle_exit=0.0)
        assert supervisor.poll_s == 0.0 and supervisor.worker_idle_exit == 0.0

    @pytest.mark.parametrize("flag, field", [
        ("--poll-s", "poll_s"), ("--idle-grace-s", "idle_grace_s"),
        ("--restart-backoff-s", "restart_backoff_s"),
        ("--worker-idle-exit", "worker_idle_exit"),
        ("--worker-poll-s", "worker_poll_s"),
    ])
    def test_cli_rejects_a_bad_duration_before_supervising(self, tmp_path,
                                                           flag, field):
        from repro.runtime import supervisor

        path = tmp_path / "cli.sqlite"
        with pytest.raises(ValueError, match=field):
            supervisor.main(["--store", str(path), flag, "nan"])
        assert not path.exists()  # no queue was opened


class TestSubmitterBudgets:
    """The submitter's ``timeout`` judges its own drain and is written
    nowhere: not on queue rows, not into stored results."""

    def test_runner_timeout_stays_out_of_stored_meta(self, tmp_path):
        path = tmp_path / "budget.sqlite"
        tasks = _tasks(3)
        runner = BatchRunner(max_workers=1, store=path, backend="queue",
                             timeout=45.0,
                             backend_options={"poll_s": 0.01,
                                              "stall_timeout_s": 60.0})
        batch = runner.run_tasks(tasks).raise_for_failures()
        runner.store.close()
        with ResultStore(path) as store:
            stored = [store.get(task) for task in tasks]
        for result in stored + batch.results:
            assert "budget_s" not in result.meta

    def test_stored_meta_is_the_algorithms_whichever_path_computed_it(
            self, tmp_path):
        """One task stored by the serial backend, by the queue backend's
        inline drain under a timeout, and by a worker's drain loop reads
        back with the meta of a fresh uncached serial run."""
        (task,) = _tasks(1, algorithm="lpt-with-setups", n=10)
        fresh = BatchRunner(max_workers=1, backend="serial")
        expected = fresh.run_tasks([task]).results[0].meta

        serial_path = tmp_path / "serial.sqlite"
        runner = BatchRunner(max_workers=1, store=serial_path,
                             backend="serial")
        runner.run_tasks([task]).raise_for_failures()
        runner.store.close()

        inline_path = tmp_path / "inline.sqlite"
        runner = BatchRunner(max_workers=1, store=inline_path,
                             backend="queue", timeout=45.0,
                             backend_options={"poll_s": 0.01,
                                              "stall_timeout_s": 60.0})
        runner.run_tasks([task]).raise_for_failures()
        runner.store.close()

        worker_path = tmp_path / "worker.sqlite"
        with TaskQueue(worker_path) as queue:
            queue.enqueue([task])
            assert drain(queue, "w1", idle_exit=0.0,
                         poll_s=0.01)["computed"] == 1

        for path in (serial_path, inline_path, worker_path):
            with ResultStore(path) as store:
                meta = store.get(task).meta
            assert meta == expected, path.name
            assert not {"budget_s", "over_budget", "instance"} & set(meta)

    def test_without_timeout_or_model_rows_travel_unbudgeted(self, tmp_path):
        path = tmp_path / "nobudget.sqlite"
        tasks = _tasks(2)
        runner = BatchRunner(max_workers=1, store=path, backend="queue",
                             backend_options={"poll_s": 0.01,
                                              "stall_timeout_s": 60.0})
        batch = runner.run_tasks(tasks)
        runner.store.close()
        assert not any("budget_s" in r.meta for r in batch.results)

    def test_a_warm_store_leaves_rows_unbudgeted_and_meta_as_serial(
            self, tmp_path):
        """A fitted cost model orders work and nothing else: however much
        the store has recorded, results carry the serial backend's meta
        keys."""
        path = tmp_path / "model.sqlite"
        warm_runner = BatchRunner(max_workers=1, store=path, backend="serial")
        warm_runner.run_tasks(_tasks(6, n=16, seed0=100))

        fresh = _tasks(2, n=16, seed0=200)
        runner = BatchRunner(max_workers=1, store=warm_runner.store,
                             backend="queue",
                             backend_options={"poll_s": 0.01,
                                              "stall_timeout_s": 60.0})
        assert runner.cost_model() is not None  # the warmup fed a fit
        queued = runner.run_tasks(fresh)
        runner.store.close()
        serial = BatchRunner(max_workers=1, store=tmp_path / "serial.sqlite",
                             backend="serial").run_tasks(fresh)
        serial_keys = [sorted(r.meta) for r in serial.results]
        assert [sorted(r.meta) for r in queued.results] == serial_keys
        assert not any("budget_s" in keys for keys in serial_keys)

    def test_autoscale_resolution(self, monkeypatch):
        """The backend reads only its kwarg; ``REPRO_AUTOSCALE`` is
        resolved by ``SessionConfig`` (see ``test_api_session``)."""
        runner = BatchRunner(max_workers=1, backend="serial")
        monkeypatch.setenv("REPRO_AUTOSCALE", "2")
        assert QueueBackend(runner).autoscale == 0
        assert QueueBackend(runner, autoscale=3).autoscale == 3
        assert QueueBackend(runner, autoscale=True).autoscale >= 1

    @pytest.mark.parametrize("option, bad", [
        ("lease_s", math.nan), ("lease_s", 0.0), ("poll_s", -1.0),
        ("poll_s", math.inf), ("autoscale", -3), ("autoscale", 1.5),
        ("stall_timeout_s", math.nan), ("stall_timeout_s", -1.0),
        ("stall_timeout_s", 0.0), ("lease_s", None), ("poll_s", None)])
    def test_bad_option_names_the_field(self, option, bad):
        with pytest.raises(ValueError, match=option):
            BatchRunner(max_workers=1, backend="queue",
                        backend_options={option: bad})


class TestSupervisorSmoke:
    """One supervised worker drains a small grid — the tier-1 CI smoke."""

    def test_supervisor_drains_a_grid_with_one_worker(self, tmp_path):
        path = tmp_path / "smoke.sqlite"
        tasks = _tasks(4)
        with TaskQueue(path, lease_s=30.0) as queue:
            queue.enqueue(tasks)
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
                assert store.get(task) is not None

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
            # worker.
            for row in queue.rows([t.cache_key() for t in tasks]):
                assert row.owner.startswith("sup-")


@pytest.mark.slow
class TestSupervisorSoak:
    """Supervisor + 2 chaos workers over a ~40-task grid (slow lane)."""

    def test_soak_crashes_and_stalls_never_break_the_invariants(self, tmp_path):
        instances = [uniform_instance(24, 3, 4, seed=9000 + s, integral=True)
                     for s in range(20)]
        tasks = [BatchTask.make(name, inst)
                 for inst in instances
                 for name in ("class-aware-greedy", "lpt-with-setups")]
        assert len(tasks) == 40

        serial = BatchRunner(max_workers=1, backend="serial")
        serial_batch = serial.run_tasks(tasks).raise_for_failures()

        path = tmp_path / "soak.sqlite"
        with TaskQueue(path, lease_s=20.0) as queue:
            queue.enqueue(tasks)
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

        # Byte-identical digests vs the serial reference.
        with ResultStore(path) as store:
            warm = store.prefetch(tasks)
        results = [warm[t.cache_key()] for t in tasks]
        assert result_digest(results) == result_digest(serial_batch.results)


class TestResultDigest:
    """``result_digest`` hashes what an answer is, not how it was made."""

    def _result(self):
        batch = BatchRunner(max_workers=1, backend="serial").run_tasks(
            _tasks(1, algorithm="lpt-with-setups"))
        return batch.raise_for_failures().results[0]

    def test_ignores_runtime_and_meta(self):
        result = self._result()
        other = replace(result, runtime_seconds=result.runtime_seconds + 1.0,
                        meta={"probe": 1})
        assert result_digest([other]) == result_digest([result])

    def test_changes_with_one_assignment_entry_or_the_makespan(self):
        result = self._result()
        digest = result_digest([result])
        inst = result.schedule.instance
        assignment = result.schedule.assignment.copy()
        assignment[0] = (assignment[0] + 1) % inst.num_machines
        moved = replace(result, schedule=Schedule(inst, assignment))
        assert result_digest([moved]) != digest
        assert result_digest([replace(result, makespan=result.makespan + 1.0)]) != digest
