"""F5 — supervised worker fleet: autoscale, crash-restart.

Runs the F4 task grid (fresh seeds) twice:

* ``serial`` — the in-process ``SerialBackend``, the semantic reference
  (built by ``Session().build_runner``);
* ``supervised`` — tasks enqueued into a fresh store file's
  ``task_queue``, then drained by a
  :class:`~repro.runtime.supervisor.Supervisor` managing a fleet of
  **chaos workers** (``python -m repro.testing.chaos --crash-after 5``,
  fleet capped at 2 — CI runs on 1 CPU): every worker incarnation
  computes five tasks and dies, so the grid only drains if the
  supervisor's crash-restart loop actually works, and — since 5 never
  divides the grid — at least one final incarnation survives to be
  retired idle.

The acceptance properties of the supervisor layer are asserted here:

* the two modes produce **byte-identical** schedules — crash/restart
  churn must never change an answer;
* **exactly-once compute survived the chaos**: every cache key was
  computed once across all worker incarnations
  (``duplicate_computes == 0``);
* the supervisor log shows the full lifecycle: ≥1 spawn, ≥1
  crash-restart (chaos-injected), ≥1 idle retirement, and a drained
  exit.

On a 1-CPU container the workers interleave rather than parallelise;
correctness of the supervision protocol, not speedup, is the quantity
under test (F2 measures dispatch speedup, F4 the bare queue protocol).
"""

import shutil
import tempfile
import time
from pathlib import Path

from benchmarks.bench_f4_queue_workers import grid_tasks
from benchmarks.conftest import publish
from repro.analysis import ResultTable
from repro.api import Session
from repro.runtime.supervisor import Supervisor
from repro.store import ResultStore, TaskQueue
from repro.testing import result_digest


def experiment_f5_supervisor(scale: str) -> ResultTable:
    """Supervised chaos fleet vs serial: equality, exactly-once, lifecycle."""
    tasks = grid_tasks(scale, 7500)
    table = ResultTable(
        title="F5: supervised worker fleet — autoscale, crash-restart",
        columns=["mode", "max_workers", "tasks", "wall_s", "computed",
                 "duplicate_computes", "spawned", "crashed", "restarts",
                 "retired", "digest12"],
    )

    serial = Session().build_runner(backend="serial", max_workers=1,
                                    store=None)
    serial_batch = serial.run_tasks(tasks).raise_for_failures()
    table.add_row(mode="serial", max_workers=0, tasks=len(serial_batch),
                  wall_s=serial_batch.wall_seconds, computed=len(serial_batch),
                  duplicate_computes=0, spawned=0, crashed=0, restarts=0,
                  retired=0, digest12=result_digest(serial_batch.results)[:12])

    store_dir = Path(tempfile.mkdtemp(prefix="repro-f5-"))
    store_path = store_dir / "f5_store.sqlite"
    try:
        with TaskQueue(store_path, lease_s=30.0) as queue:
            queue.enqueue(tasks)
        supervisor = Supervisor(
            store_path, max_workers=2, lease_s=30.0, poll_s=0.05,
            idle_grace_s=0.3, restart_backoff_s=0.1, restart_cap=60,
            worker_module="repro.testing.chaos",
            worker_args=["--crash-after", "5"],
            worker_idle_exit=2.0, worker_poll_s=0.02)
        t0 = time.perf_counter()
        summary = supervisor.run()
        wall = time.perf_counter() - t0
        if not summary["drained"]:
            raise RuntimeError(
                f"supervisor gave up before draining the queue: {summary}")

        with TaskQueue(store_path, lease_s=30.0) as queue:
            compute_counts = queue.compute_counts(
                sorted({t.cache_key() for t in tasks}))
        with ResultStore(store_path) as store:
            warm = store.prefetch(tasks)
        missing = [t.cache_key() for t in tasks if t.cache_key() not in warm]
        if missing:
            raise RuntimeError(
                f"{len(missing)} task(s) never produced a stored result")
        results = [warm[t.cache_key()] for t in tasks]
        table.add_row(
            mode="supervised", max_workers=2, tasks=len(tasks), wall_s=wall,
            computed=sum(compute_counts.values()),
            duplicate_computes=sum(max(0, c - 1)
                                   for c in compute_counts.values()),
            spawned=summary["spawned"], crashed=summary["crashed"],
            restarts=summary["restarts"], retired=summary["retired"],
            digest12=result_digest(results)[:12])
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    table.add_note("expected shape: identical digest12 for both modes, "
                   "duplicate_computes = 0 despite injected crashes, "
                   "spawned/crashed/restarts/retired all >= 1 on the "
                   "supervised row")
    return publish(table, "F5", scale)


def test_f5_table(benchmark, scale):
    """The F5 result table: supervised chaos fleet vs the serial reference."""
    table = benchmark.pedantic(experiment_f5_supervisor, args=(scale,),
                               rounds=1, iterations=1)
    rows = {row["mode"]: row for row in table.rows}
    assert set(rows) == {"serial", "supervised"}
    serial, supervised = rows["serial"], rows["supervised"]

    # Same grid on both sides.
    assert supervised["tasks"] == serial["tasks"] > 0

    # Acceptance: byte-identical results despite crash/restart churn.
    assert supervised["digest12"] == serial["digest12"], (
        "supervised-fleet results diverged from the serial reference")

    # Acceptance: exactly-once compute survived the injected crashes.
    assert supervised["duplicate_computes"] == 0, (
        f"{supervised['duplicate_computes']} cache key(s) computed twice")
    assert supervised["computed"] == supervised["tasks"]

    # Acceptance: the supervisor exercised its whole lifecycle.
    assert supervised["spawned"] >= 1
    assert supervised["crashed"] >= 1 and supervised["restarts"] >= 1, (
        "the chaos fleet never exercised the crash-restart path")
    assert supervised["retired"] >= 1, "no worker was ever retired idle"
