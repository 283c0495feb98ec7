"""F2 — throughput of the batch runtime, serial vs process-pool dispatch.

Runs the same ``(algorithm × instance)`` grid twice, each time on a fresh
store-less runner from ``Session().build_runner`` (so every task is
computed): once on a single in-process worker and once on the auto-sized
process pool, and reports instances/second of each.  Tasks are
interleaved instance-major, so every auto-sized chunk mixes heavy PTAS
tasks with cheap ones and the heavy work spreads across workers.

The parallel speedup is asserted only on multi-core hosts: with one
usable CPU the runner degrades to in-process execution and both modes
coincide by design (the speedup column stays ≈ 1).
"""

import pytest

from benchmarks.conftest import publish
from repro.analysis import ResultTable
from repro.api import Session
from repro.generators import uniform_instance
from repro.runtime import BatchRunner, BatchTask, usable_cpus

#: Algorithms used for the throughput grid.  The PTAS at a small epsilon
#: makes each task cost tens of milliseconds, so pool startup and pickling
#: overheads amortise and the measured speedup reflects the dispatch
#: engine, not fork latency.
F2_ALGORITHMS = (("ptas-uniform", {"epsilon": 0.05}),
                 ("lpt-with-setups", {}),
                 ("class-aware-greedy", {}))


def experiment_f2_batch_throughput(scale: str) -> ResultTable:
    """Instances/second of the batch runtime, serial vs parallel dispatch."""
    quick = scale == "quick"
    num_instances = 16 if quick else 48
    n, m, K = (200, 12, 20) if quick else (400, 20, 40)
    instances = [uniform_instance(n, m, K, seed=7000 + i, integral=True)
                 for i in range(num_instances)]
    tasks = [BatchTask.make(name, inst, kwargs)
             for inst in instances for name, kwargs in F2_ALGORITHMS]

    session = Session()
    serial = session.build_runner(max_workers=1, store=None,
                                  backend="serial")
    serial_batch = serial.run_tasks(tasks).raise_for_failures()
    parallel = session.build_runner(store=None, backend=None)
    parallel_batch = parallel.run_tasks(tasks).raise_for_failures()

    table = ResultTable(
        title="F2: batch runtime throughput — serial vs process-pool dispatch",
        columns=["mode", "workers", "tasks", "wall_s", "tasks_per_s",
                 "speedup_vs_serial"],
    )
    table.add_row(mode="serial", workers=1, tasks=len(serial_batch),
                  wall_s=serial_batch.wall_seconds,
                  tasks_per_s=serial_batch.throughput(), speedup_vs_serial=1.0)
    speedup = (serial_batch.wall_seconds / parallel_batch.wall_seconds
               if parallel_batch.wall_seconds > 0 else float("inf"))
    table.add_row(mode="parallel", workers=parallel.max_workers,
                  tasks=len(parallel_batch), wall_s=parallel_batch.wall_seconds,
                  tasks_per_s=parallel_batch.throughput(),
                  speedup_vs_serial=speedup)
    table.add_note("expected shape: tasks_per_s scales with the worker count; on a "
                   "single-CPU host both modes run in-process and the speedup is ~1")
    return publish(table, "F2", scale)


def test_f2_table(benchmark, scale):
    """The F2 result table: parallel dispatch beats serial on multi-core hosts."""
    table = benchmark.pedantic(experiment_f2_batch_throughput, args=(scale,),
                               rounds=1, iterations=1)
    rows = {row["mode"]: row for row in table.rows}
    assert set(rows) == {"serial", "parallel"}
    assert rows["serial"]["tasks"] == rows["parallel"]["tasks"] > 0
    cpus = usable_cpus()
    if cpus >= 2:
        # At exactly 2 cores the ceiling is 2.0 minus fork/pickle overhead,
        # so the 1.5x bar only applies from 3 cores up.
        required = 1.5 if cpus >= 3 else 1.2
        speedup = rows["parallel"]["speedup_vs_serial"]
        if speedup <= required:  # absorb one load transient before failing
            retry = {row["mode"]: row
                     for row in experiment_f2_batch_throughput(scale).rows}
            speedup = max(speedup, retry["parallel"]["speedup_vs_serial"])
        assert speedup > required


@pytest.mark.benchmark(group="f2-batch")
@pytest.mark.parametrize("workers", [1, None], ids=["serial", "auto"])
def test_f2_grid_runtime(benchmark, scale, workers):
    """Wall-clock of one grid dispatch at each worker setting."""
    count = 8 if scale == "quick" else 24
    instances = [uniform_instance(60, 6, 8, seed=7100 + i, integral=True)
                 for i in range(count)]

    def dispatch():
        runner = BatchRunner(max_workers=workers)
        return runner.run(["lpt-with-setups", "class-aware-greedy"], instances)

    batch = benchmark(dispatch)
    assert len(batch) == 2 * count
    assert not batch.failures()
