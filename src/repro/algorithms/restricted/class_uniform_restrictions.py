"""The 2-approximation for restricted assignment with class-uniform restrictions.

Theorem 3.10: when all jobs of a class share one set of eligible machines,
the following dual-approximation decision procedure produces, for any guess
``T`` that admits a schedule of makespan ``T``, a schedule of makespan at
most ``2T``:

1. solve LP-RelaxedRA for guess ``T``; reject if infeasible (Lemma 3.7
   shows feasibility of the guess implies LP feasibility).  Under
   class-uniform restrictions the LP is a transportation problem, decided
   by a max flow (:class:`RelaxedRAFlow`) whose solution has forest
   support — a forest is a pseudo-forest, so steps 2–4 apply unchanged;
2. round the support graph (Lemma 3.8) to obtain, per fractional class
   ``k``, the kept machines (``i_k⁺`` candidates) and the at-most-one
   dropped machine ``i_k⁻``;
3. move the workload of ``k`` on ``i_k⁻`` to an arbitrary kept machine
   ``i_k⁺`` (Lemma 3.9: loads stay ≤ 2T, and at most one machine per class
   exceeds ``T``);
4. greedily fill each class's reserved slots with its actual jobs, machines
   ordered with ``i_k⁺`` last; each machine is over-packed by at most one
   job plus one setup, i.e. by at most ``T``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.algorithms.base import AlgorithmResult
from repro.algorithms.restricted.lp_relaxed_ra import RelaxedRAFlow
# Unused here, but perfbench/tracing.py patches this module-level name.
from repro.algorithms.restricted.lp_relaxed_ra import solve_lp_relaxed_ra  # noqa: F401
from repro.algorithms.restricted.pseudoforest import SupportRounding, round_support_graph
from repro.core.bounds import makespan_bounds
from repro.core.dual import dual_approximation_search
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.runtime.registry import register_algorithm

__all__ = [
    "class_uniform_restrictions_decision",
    "class_uniform_restrictions_approximation",
    "GUARANTEE",
]

#: The approximation factor proven in Theorem 3.10.
GUARANTEE: float = 2.0


def _check_applicable(instance: Instance) -> None:
    if not instance.has_class_uniform_restrictions():
        raise ValueError(
            "class_uniform_restrictions algorithms require all jobs of a class to share "
            "one eligible-machine set (Instance.has_class_uniform_restrictions())")


def _quick_reject(instance: Instance, guess: float) -> bool:
    """Necessary condition for guess feasibility: every job fits somewhere with its setup."""
    inst = instance
    cost = inst.processing + inst.setups[:, inst.job_classes]
    best = np.min(np.where(np.isfinite(cost), cost, np.inf), axis=0)
    return bool(np.any(best > guess * (1.0 + 1e-9)))


def greedy_fill_classes(
    instance: Instance,
    slots: Dict[int, List[tuple]],
) -> Schedule:
    """Fill per-class reserved slots with the actual jobs.

    ``slots[k]`` is an ordered list of ``(machine, reserved_workload)``
    pairs; the last entry plays the role of ``i_k⁺`` and absorbs any
    overflow.  Jobs of ``k`` are placed on the current machine while its
    reserved workload is not yet exhausted (over-packing by at most one
    job), then the procedure moves on — exactly the filling step in the
    proofs of Theorems 3.10 and 3.11.
    """
    inst = instance
    schedule = Schedule(inst)
    for k, machine_slots in slots.items():
        jobs = [int(j) for j in inst.jobs_of_class(k)]
        if not jobs:
            continue
        if not machine_slots:
            raise ValueError(f"class {k} has no reserved slots")
        cursor = 0
        for i, reserved in machine_slots:
            if cursor >= len(jobs):
                break
            remaining = float(reserved)
            while cursor < len(jobs) and remaining > 1e-12:
                j = jobs[cursor]
                schedule.assign(j, int(i))
                remaining -= float(inst.processing[int(i), j])
                cursor += 1
        # Whatever is left goes to the final machine (i_k^+).
        last_machine = int(machine_slots[-1][0])
        while cursor < len(jobs):
            schedule.assign(jobs[cursor], last_machine)
            cursor += 1
    return schedule


def class_uniform_restrictions_decision(instance: Instance, guess: float) -> Optional[Schedule]:
    """Decision procedure for guess ``T``: a schedule of makespan ≤ 2T, or ``None``."""
    return _decide(instance, guess, RelaxedRAFlow(instance))


def _decide(instance: Instance, guess: float, flow: RelaxedRAFlow) -> Optional[Schedule]:
    """The decision procedure, given the instance's flow oracle.

    The search reuses one oracle across its guesses: building it once per
    guess took about a third of each ``paper-cold`` class-uniform task
    (2-CPU Xeon host).
    """
    inst = instance
    if _quick_reject(inst, guess):
        return None
    relax = flow.solve(guess)
    if not relax.feasible:
        return None
    rounding = round_support_graph(relax.x)
    slots: Dict[int, List[tuple]] = {}

    for k in (int(c) for c in inst.classes_present()):
        if k in rounding.integral_assignment:
            i = rounding.integral_assignment[k]
            slots[k] = [(i, float("inf"))]
            continue
        kept = rounding.kept_machines.get(k, [])
        dropped = rounding.dropped_machine.get(k)
        if not kept:
            if dropped is None:
                # The class never appeared fractionally nor integrally: its
                # workload is zero (all-zero column can only happen for an
                # empty class, filtered by classes_present) — defensive skip.
                continue
            # Only a dropped machine supports the class: everything goes there.
            slots[k] = [(dropped, float("inf"))]
            continue
        plus_machine = kept[0]
        machine_slots = []
        moved_fraction = relax.x[dropped, k] if dropped is not None else 0.0
        for i in kept:
            fraction = relax.x[i, k]
            if i == plus_machine:
                fraction += moved_fraction
            machine_slots.append((i, fraction * relax.workload[i, k]))
        # Order with i_k^+ last so it absorbs the overflow.
        machine_slots.sort(key=lambda pair: pair[0] == plus_machine)
        slots[k] = machine_slots
    schedule = greedy_fill_classes(inst, slots)
    schedule.assert_valid()
    return schedule


@register_algorithm(
    "class-uniform-restrictions-2approx",
    environments=("identical", "restricted"),
    requires=("has_class_uniform_restrictions",),
    guarantee=GUARANTEE,
    tags=("paper",),
    cost_features=("num_jobs", "num_machines", "num_classes"),
)
def class_uniform_restrictions_approximation(
    instance: Instance,
    *,
    precision: float = 0.02,
) -> AlgorithmResult:
    """The full 2(1+precision)-approximation via dual-approximation search."""
    start = time.perf_counter()
    _check_applicable(instance)
    flow = RelaxedRAFlow(instance)
    bounds = makespan_bounds(instance)

    def decision(guess: float) -> Optional[Schedule]:
        return _decide(instance, guess, flow)

    result = dual_approximation_search(instance, decision, precision=precision, bounds=bounds)
    runtime = time.perf_counter() - start
    return AlgorithmResult.from_schedule(
        "class-uniform-restrictions-2approx", result.schedule, runtime=runtime,
        guarantee=GUARANTEE * (1.0 + precision),
        meta={
            "accepted_guess": result.accepted_guess,
            "rejected_guess": result.rejected_guess,
            "search_iterations": result.iterations,
        },
    )
