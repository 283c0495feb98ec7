"""F4 — distributed SQLite work queue: two subprocess workers vs serial.

Runs one deterministic task grid twice, on runners from
``Session().build_runner``:

* ``serial`` — the in-process ``SerialBackend``, store-less: the semantic
  reference;
* ``queue`` — tasks enqueued into a fresh store file's ``task_queue`` and
  drained by **two** ``python -m repro.runtime.worker`` subprocesses; the
  submitting runner is a pure coordinator (``inline=False``), so every
  result was computed by a worker and travelled back through the store.

The acceptance properties of the distributed layer are asserted here:

* the two modes produce **byte-identical** schedules — the result digest
  (algorithm name, makespan, guarantee, full assignment array; wall times
  excluded) matches exactly.  The grid is deterministic by construction
  (no time-limited MILP references), so no incumbent-row exclusions are
  needed;
* **store-mediated dedup** held: every cache key was computed exactly
  once across both workers (``duplicate_computes == 0``), and nothing was
  computed by the coordinator.

On a 1-CPU container the workers interleave rather than parallelise;
correctness of the queue protocol, not speedup, is the quantity under
test (F2 measures dispatch speedup, F3 store reuse).
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List

from benchmarks.conftest import publish
from repro.analysis import ResultTable
from repro.api import Session
from repro.generators import uniform_instance
from repro.runtime import BatchTask
from repro.runtime.supervisor import child_env
from repro.store import TaskQueue
from repro.testing import result_digest

#: The F4 grid: deterministic algorithms only (no MILP incumbents, no
#: randomness), so the serial and the distributed runs must agree to the
#: byte — any divergence is a queue-layer bug, not solver noise.
F4_ALGORITHMS = (("ptas-uniform", {"epsilon": 0.3}),
                 ("lpt-with-setups", {}),
                 ("class-aware-greedy", {}))


def grid_tasks(scale: str, seed0: int) -> List[BatchTask]:
    """The F4 grid (shared by F5): instance-major ``F4_ALGORITHMS`` tasks
    over uniform instances seeded ``seed0``, ``seed0 + 1``, …"""
    quick = scale == "quick"
    num_instances = 4 if quick else 12
    n, m, K = (80, 6, 8) if quick else (200, 12, 16)
    instances = [uniform_instance(n, m, K, seed=seed0 + i, integral=True)
                 for i in range(num_instances)]
    return [BatchTask.make(name, inst, kwargs)
            for inst in instances for name, kwargs in F4_ALGORITHMS]


def experiment_f4_queue_workers(scale: str) -> ResultTable:
    """Distributed queue backend vs serial: equality and exactly-once compute."""
    tasks = grid_tasks(scale, 7400)
    session = Session()
    table = ResultTable(
        title="F4: distributed SQLite work queue — two workers vs serial",
        columns=["mode", "workers", "tasks", "unique_keys", "wall_s",
                 "computed", "duplicate_computes", "digest12"],
    )

    serial = session.build_runner(backend="serial", max_workers=1,
                                  store=None)
    serial_batch = serial.run_tasks(tasks).raise_for_failures()
    table.add_row(mode="serial", workers=0, tasks=len(serial_batch),
                  unique_keys=len({t.cache_key() for t in tasks}),
                  wall_s=serial_batch.wall_seconds,
                  computed=len(serial_batch), duplicate_computes=0,
                  digest12=result_digest(serial_batch.results)[:12])

    store_dir = Path(tempfile.mkdtemp(prefix="repro-f4-"))
    store_path = store_dir / "f4_store.sqlite"
    workers = []
    try:
        for i in range(2):
            workers.append(subprocess.Popen(
                [sys.executable, "-m", "repro.runtime.worker",
                 "--store", str(store_path), "--worker-id", f"f4-worker-{i}",
                 "--idle-exit", "20", "--poll-s", "0.02"],
                env=child_env(), stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL))
        coordinator = session.build_runner(
            store=str(store_path), backend="queue", max_workers=1,
            backend_options={"inline": False, "poll_s": 0.02,
                             "stall_timeout_s": 120.0})
        try:
            queue_batch = coordinator.run_tasks(tasks).raise_for_failures()
            with TaskQueue(coordinator.store) as queue:
                compute_counts = queue.compute_counts(
                    sorted({t.cache_key() for t in tasks}))
        finally:
            coordinator.store.close()
        table.add_row(
            mode="queue", workers=len(workers), tasks=len(queue_batch),
            unique_keys=len(compute_counts), wall_s=queue_batch.wall_seconds,
            computed=sum(compute_counts.values()),
            duplicate_computes=sum(max(0, c - 1)
                                   for c in compute_counts.values()),
            digest12=result_digest(queue_batch.results)[:12])
    finally:
        for proc in workers:
            proc.terminate()
        for proc in workers:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
        shutil.rmtree(store_dir, ignore_errors=True)
    table.add_note("expected shape: identical digest12 for both modes "
                   "(byte-identical schedules), duplicate_computes = 0 "
                   "(store-mediated dedup), computed = unique_keys")
    return publish(table, "F4", scale)


def test_f4_table(benchmark, scale):
    """The F4 result table: N workers, one store, exactly-once compute."""
    table = benchmark.pedantic(experiment_f4_queue_workers, args=(scale,),
                               rounds=1, iterations=1)
    rows = {row["mode"]: row for row in table.rows}
    assert set(rows) == {"serial", "queue"}
    serial, queue = rows["serial"], rows["queue"]

    # Same grid on both sides, drained entirely by the two workers.
    assert queue["tasks"] == serial["tasks"] > 0
    assert queue["workers"] == 2

    # Acceptance: byte-identical results regardless of where they ran.
    assert queue["digest12"] == serial["digest12"], (
        "queue-backend results diverged from the serial reference")

    # Acceptance: exactly-once compute across all workers on one store.
    assert queue["duplicate_computes"] == 0, (
        f"{queue['duplicate_computes']} cache key(s) were computed twice")
    assert queue["computed"] == queue["unique_keys"]
