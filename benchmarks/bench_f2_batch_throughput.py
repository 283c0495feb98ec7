"""F2 — throughput of the batch runtime, serial vs process-pool dispatch.

Measures instances/second of a ``(fast algorithm × instance)`` grid run
through :class:`repro.runtime.BatchRunner` once on a single in-process
worker and once on the auto-sized process pool.  The parallel speedup is
asserted only on multi-core hosts: with one usable CPU the runner degrades
to in-process execution and both modes coincide by design.
"""

import pytest

from benchmarks.conftest import run_and_print
from repro.generators import uniform_instance
from repro.runtime import BatchRunner, usable_cpus


def test_f2_table(benchmark, scale):
    """The F2 result table: parallel dispatch beats serial on multi-core hosts."""
    table = benchmark.pedantic(run_and_print, args=("F2", scale), rounds=1, iterations=1)
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
                     for row in run_and_print("F2", scale).rows}
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
