"""F3 — persistent result store: warm grid re-runs vs cold compute.

Runs the same ``(algorithm × instance)`` grid three times against one
on-disk :class:`repro.store.ResultStore`, each time through a fresh
:class:`repro.runtime.BatchRunner` (simulating a process restart): cold
(everything computes and persists), warm (everything streams from disk),
and mixed (warm grid plus fresh instances, exercising the no-barrier
``run_iter`` delivery and the cost-model task ordering).

The two acceptance properties of the store layer are asserted here:

* a warm re-run completes at least 5x faster than the cold run;
* in the mixed run, ``run_iter`` yields its first (warm) result before
  the process pool finishes its first cold chunk.

It also asserts that a warm pass only reads: it commits no write to the
store file.
"""

import math

from benchmarks.conftest import run_and_print


def test_f3_table(benchmark, scale):
    """The F3 result table: the store turns re-runs into disk reads."""
    table = benchmark.pedantic(run_and_print, args=("F3", scale), rounds=1,
                               iterations=1)
    rows = {row["mode"]: row for row in table.rows}
    assert set(rows) == {"cold", "warm", "mixed"}
    cold, warm, mixed = rows["cold"], rows["warm"], rows["mixed"]

    # Identical grids, disjoint sources: cold computed everything, warm
    # served everything from the persisted store.
    assert warm["tasks"] == cold["tasks"] > 0
    assert cold["warm_served"] == 0
    assert warm["warm_served"] == warm["tasks"]

    # Acceptance: a persisted-store re-run is >= 5x faster than computing.
    assert warm["speedup_vs_cold"] >= 5.0, (
        f"warm store re-run only {warm['speedup_vs_cold']:.1f}x faster")

    # Acceptance: streaming beats the batch barrier — the first warm result
    # arrives before the pool delivers its first cold chunk.
    assert mixed["warm_served"] == cold["tasks"]
    assert not math.isnan(mixed["first_fresh_s"])
    assert mixed["first_result_s"] < mixed["first_fresh_s"], (
        "run_iter did not stream a warm result before the first cold chunk")

    # A warm pass only reads: no access-time update, no write of any kind.
    assert cold["store_written"] and mixed["store_written"]
    assert not warm["store_written"], "the warm pass wrote to the store file"
    assert warm["payload_bytes_per_row"] == cold["payload_bytes_per_row"] > 0
