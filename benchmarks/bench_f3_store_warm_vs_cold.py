"""F3 — persistent result store: warm grid re-runs vs cold compute.

Runs the same ``(algorithm × instance)`` grid three times against one
scratch on-disk :class:`repro.store.ResultStore`, each time through a
fresh :class:`repro.runtime.BatchRunner` from ``Session().build_runner``
(an empty in-memory cache, as after a process restart):

* ``cold`` — empty store; every task computes and is persisted;
* ``warm`` — the identical grid again; everything streams from the store
  with no pool work;
* ``mixed`` — the warm grid plus fresh instances, exercising the
  no-barrier ``run_iter`` delivery and the cost-model task ordering: the
  model fitted from the cold pass orders the mixed pass's cold tasks by
  descending predicted cost.

``store_written`` records that a second connection's ``PRAGMA
data_version`` moved, i.e. the pass committed a write.  The pool is
forced on (even on one CPU) so the mixed row measures real fork/dispatch
latency; it sizes its chunks from the batch (the mixed pass's few cold
tasks go one per chunk).

The acceptance properties of the store layer are asserted here:

* a warm re-run completes at least 5x faster than the cold run;
* in the mixed run, ``run_iter`` yields its first (warm) result before
  the process pool finishes its first cold chunk;
* a warm pass only reads: it commits no write to the store file.
"""

import math
import shutil
import sqlite3
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from benchmarks.conftest import publish
from repro.analysis import ResultTable
from repro.api import Session
from repro.generators import uniform_instance
from repro.runtime import BatchRunner, BatchTask

#: The F3 grid leans on the PTAS at a small epsilon so each cold task costs
#: a tangible fraction of a second — the quantity under test is the store's
#: ability to *skip* that work on a warm re-run, not the work itself.
F3_ALGORITHMS = (("ptas-uniform", {"epsilon": 0.04}),
                 ("lpt-with-setups", {}),
                 ("class-aware-greedy", {}))


def _f3_stream(runner: BatchRunner, tasks: List[BatchTask]) -> Dict[str, float]:
    """Drain ``run_iter`` and time first-yield / first-fresh / total wall.

    ``first_result_s`` is the latency to the *first* streamed result of any
    origin; ``first_fresh_s`` to the first result that was actually
    computed this run (``nan`` when everything was warm).  The gap between
    the two is the streaming win: warm results reach the consumer while
    cold work is still running.
    """
    warm_before = runner.stats["cache_hits"] + runner.stats["store_hits"]
    start = time.perf_counter()
    first_result = first_fresh = float("nan")
    count = 0
    for _idx, _result in runner.run_iter(tasks):
        now = time.perf_counter() - start
        count += 1
        if math.isnan(first_result):
            first_result = now
        warm_now = runner.stats["cache_hits"] + runner.stats["store_hits"]
        if math.isnan(first_fresh) and count > warm_now - warm_before:
            first_fresh = now
    wall = time.perf_counter() - start
    warm_served = (runner.stats["cache_hits"] + runner.stats["store_hits"]
                   - warm_before)
    return {"wall_s": wall, "first_result_s": first_result,
            "first_fresh_s": first_fresh, "warm_served": warm_served,
            "tasks": count}


def experiment_f3_store_warm_vs_cold(scale: str) -> ResultTable:
    """Persistent-store throughput: cold compute vs warm re-run vs mixed."""
    quick = scale == "quick"
    num_instances = 6 if quick else 16
    num_fresh = 2 if quick else 4
    n, m, K = (500, 16, 24) if quick else (900, 24, 40)
    instances = [uniform_instance(n, m, K, seed=7300 + i, integral=True)
                 for i in range(num_instances)]
    fresh_instances = [uniform_instance(n, m, K, seed=7900 + i, integral=True)
                       for i in range(num_fresh)]
    base_tasks = [BatchTask.make(name, inst, kwargs)
                  for inst in instances for name, kwargs in F3_ALGORITHMS]
    mixed_tasks = base_tasks + [BatchTask.make(name, inst, kwargs)
                                for inst in fresh_instances
                                for name, kwargs in F3_ALGORITHMS]

    session = Session()
    store_dir = Path(tempfile.mkdtemp(prefix="repro-f3-"))
    store_path = store_dir / "f3_store.sqlite"
    table = ResultTable(
        title="F3: persistent result store — warm vs cold grid re-runs",
        columns=["mode", "tasks", "warm_served", "wall_s", "first_result_s",
                 "first_fresh_s", "tasks_per_s", "speedup_vs_cold",
                 "store_written", "payload_bytes_per_row"],
    )
    timings: Dict[str, Dict[str, float]] = {}
    try:
        for mode, tasks in (("cold", base_tasks), ("warm", base_tasks),
                            ("mixed", mixed_tasks)):
            runner = session.build_runner(store=str(store_path), backend="pool")
            watcher = sqlite3.connect(str(store_path))
            try:
                version = watcher.execute("PRAGMA data_version").fetchone()
                timing = _f3_stream(runner, tasks)
                written = watcher.execute("PRAGMA data_version").fetchone() != version
                stats = runner.store.stats()
            finally:
                watcher.close()
                runner.store.close()
            timings[mode] = timing
            table.add_row(
                mode=mode, tasks=timing["tasks"], warm_served=timing["warm_served"],
                wall_s=timing["wall_s"], first_result_s=timing["first_result_s"],
                first_fresh_s=timing["first_fresh_s"],
                tasks_per_s=timing["tasks"] / timing["wall_s"],
                speedup_vs_cold=timings["cold"]["wall_s"] / timing["wall_s"],
                store_written=written,
                payload_bytes_per_row=(stats["total_payload_bytes"]
                                       // max(1, stats["entries"])),
            )
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    table.add_note("expected shape: the warm re-run serves every task from the store "
                   ">= 5x faster than the cold run; in the mixed run first_result_s "
                   "(a warm stream hit) comes well before first_fresh_s (the first "
                   "pool-computed result)")
    return publish(table, "F3", scale)


def test_f3_table(benchmark, scale):
    """The F3 result table: the store turns re-runs into disk reads."""
    table = benchmark.pedantic(experiment_f3_store_warm_vs_cold, args=(scale,),
                               rounds=1, iterations=1)
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
