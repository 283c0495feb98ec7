#!/usr/bin/env python3
"""Quickstart: build an instance, run the paper's algorithms, compare makespans.

Run with:  python examples/quickstart.py
"""

from repro import (
    AlgorithmSweep,
    ScenarioSpec,
    Session,
    algorithms_for,
    class_aware_list_schedule,
    class_oblivious_list_schedule,
    compare_algorithms,
    lpt_uniform_with_setups,
    milp_optimal,
    ptas_uniform,
    uniform_instance,
)
from repro.analysis import ReferenceBound
from repro.api import ScalePreset


def main() -> None:
    # A uniformly-related-machines instance: 40 jobs in 6 setup classes on 4
    # machines whose speeds differ by up to 8x, with setup times comparable
    # to job sizes.
    instance = uniform_instance(
        num_jobs=40,
        num_machines=4,
        num_classes=6,
        seed=7,
        speed_spread=8.0,
        setup_regime="comparable",
        integral=True,
    )
    print(f"instance: {instance}")

    # The Lemma 2.1 constant-factor approximation (LPT with setup placeholders).
    lpt = lpt_uniform_with_setups(instance)
    print(f"LPT with setups        makespan = {lpt.makespan:8.1f}   "
          f"(guarantee {lpt.guarantee:.2f}x)")

    # The Section 2 PTAS at two accuracies.
    for eps in (0.5, 0.1):
        ptas = ptas_uniform(instance, epsilon=eps)
        print(f"PTAS (epsilon={eps:<4})    makespan = {ptas.makespan:8.1f}   "
              f"(accepted guess {ptas.meta['accepted_guess']:.1f})")

    # Greedy baselines for comparison.
    aware = class_aware_list_schedule(instance)
    oblivious = class_oblivious_list_schedule(instance)
    print(f"class-aware greedy     makespan = {aware.makespan:8.1f}")
    print(f"class-oblivious greedy makespan = {oblivious.makespan:8.1f}")

    # The exact optimum (small instance, MILP) and measured ratios.
    optimum = milp_optimal(instance, time_limit=60)
    print(f"exact optimum          makespan = {optimum.makespan:8.1f}")
    print()
    print("measured approximation ratios (vs exact optimum):")
    report = compare_algorithms(instance, {
        "lpt_with_setups": lpt_uniform_with_setups,
        "ptas_eps_0.1": lambda inst: ptas_uniform(inst, epsilon=0.1),
        "class_aware_greedy": class_aware_list_schedule,
        "class_oblivious_greedy": class_oblivious_list_schedule,
    }, reference=ReferenceBound(optimum.makespan, optimum.meta["solve_status"]))
    for name, stats in report.items():
        if name == "_reference":
            continue
        print(f"  {name:<24} ratio = {stats['ratio']:.3f}")

    # The runtime registry + batch engine, reached through the Session
    # facade (the one public front door over registry / runner pool /
    # store / backends): discover every algorithm that can serve an
    # instance, run a whole (algorithm x instance) grid through the shared
    # (cached) runner, and let portfolio mode keep the best schedule.
    print()
    applicable = [spec.name for spec in algorithms_for(instance)]
    print(f"registered algorithms applicable here: {', '.join(applicable)}")
    session = Session()                       # config: kwargs > env > defaults
    runner = session.runner()                 # canonical keyed runner pool
    batch = runner.run(["lpt-with-setups", "class-aware-greedy"],
                       [instance, instance.without_setups()])
    print(f"grid of {len(batch)} tasks in {batch.wall_seconds * 1000:.1f} ms "
          f"({batch.throughput():.0f} tasks/s, "
          f"{runner.stats['cache_hits']} cache hits)")
    best = runner.portfolio([instance])[0]
    print(f"portfolio winner        makespan = {best.makespan:8.1f}   ({best.name})")

    # Declarative scenarios: the same sweep as a data object.  Specs
    # round-trip to the TOML files under scenarios/ (every one of which
    # runs via `python -m repro run scenarios/<file>.toml`).
    spec = ScenarioSpec(
        name="quickstart-sweep",
        title="Quickstart: baselines on the E1 uniform suite",
        suite="e1_lpt_uniform",
        algorithms=(AlgorithmSweep.make("lpt-with-setups"),
                    AlgorithmSweep.make("class-aware-greedy")),
        scales={"quick": ScalePreset(max_points=2)},
    )
    run = session.run(spec)                   # or session.stream(spec)
    print()
    print(run.table().render())

    # Persistent result store + streaming: results written through a
    # store-backed runner survive process restarts; a second runner (think:
    # tomorrow's process) streams them from disk via run_iter before any
    # pool work starts, and its cost model orders cold tasks heavy-first.
    import shutil
    import tempfile
    from pathlib import Path

    from repro.runtime import BatchTask

    store_dir = Path(tempfile.mkdtemp(prefix="repro-quickstart-"))
    store_path = store_dir / "results.sqlite"
    store_session = Session(store_path=str(store_path))
    try:
        tasks = [BatchTask.make("ptas-uniform", instance, {"epsilon": eps})
                 for eps in (0.5, 0.25, 0.1)]
        cold = store_session.build_runner()
        cold.run_tasks(tasks)                   # computes + persists
        cold.store.close()
        warm = store_session.build_runner()     # fresh runner, warm disk
        print()
        print(f"streaming a warm re-run from {store_path.name}:")
        for idx, result in warm.run_iter(tasks):  # yields without pool work
            print(f"  task {idx} ({result.name:<14}) makespan = {result.makespan:8.1f}")
        print(f"store hits: {warm.stats['store_hits']}/{len(tasks)} "
              f"(recomputed nothing)")
        warm.store.close()
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
