"""The 3-approximation for unrelated machines with class-uniform processing times.

Theorem 3.11: when all jobs of a class have the same processing time on
every machine (``k_j = k_{j'} ⇒ p_ij = p_ij'``), the following decision
procedure turns a feasible guess ``T`` into a schedule of makespan ≤ 3T:

1. solve LP-RelaxedRA with constraint (16) — ``x̄_ik = 0`` whenever
   ``s_ik + p_ij > T`` for the (common) per-job time of class ``k`` on
   machine ``i``;
2. round the support graph as in Section 3.3.1 (Lemma 3.8);
3. for each fractional class ``k`` with dropped machine ``i_k⁻``:
   if ``x̄*_{i_k⁻ k} > 1/2`` process the *entire* class on ``i_k⁻``,
   otherwise set that fraction to zero and double the fractions on the kept
   machines ``i_k⁺,ι``.  Every machine load is then at most ``2T``;
4. add at most one setup per machine and greedily fill the reserved slots
   with the actual jobs; by constraint (16) this adds at most ``T`` per
   machine, giving makespan ≤ 3T.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.algorithms.base import AlgorithmResult
from repro.algorithms.restricted.class_uniform_restrictions import (
    _quick_reject,
    greedy_fill_classes,
)
from repro.algorithms.restricted.lp_relaxed_ra import solve_lp_relaxed_ra
from repro.algorithms.restricted.pseudoforest import round_support_graph
from repro.core.bounds import makespan_bounds
from repro.core.dual import dual_approximation_search
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.runtime.registry import register_algorithm

__all__ = [
    "class_uniform_ptimes_decision",
    "class_uniform_ptimes_approximation",
    "GUARANTEE",
]

#: The approximation factor proven in Theorem 3.11.
GUARANTEE: float = 3.0


def _check_applicable(instance: Instance) -> None:
    if not instance.has_class_uniform_processing_times():
        raise ValueError(
            "class_uniform_ptimes algorithms require all jobs of a class to share one "
            "processing time per machine (Instance.has_class_uniform_processing_times())")


def class_uniform_ptimes_decision(
    instance: Instance,
    guess: float,
) -> Optional[Schedule]:
    """Decision procedure for guess ``T``: a schedule of makespan ≤ 3T, or ``None``."""
    inst = instance
    if _quick_reject(inst, guess):
        return None
    relax = solve_lp_relaxed_ra(inst, guess, variant="ptimes")
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
                continue
            slots[k] = [(dropped, float("inf"))]
            continue
        dropped_fraction = relax.x[dropped, k] if dropped is not None else 0.0
        if dropped is not None and dropped_fraction > 0.5:
            # Entire class on i_k^-.
            slots[k] = [(dropped, float("inf"))]
            continue
        # Otherwise drop i_k^- and double every kept fraction (doubling is
        # only needed when workload actually moved off i_k^-).
        scale = 2.0 if dropped is not None else 1.0
        machine_slots = []
        for i in kept:
            fraction = scale * relax.x[i, k]
            machine_slots.append((i, fraction * relax.workload[i, k]))
        slots[k] = machine_slots
    schedule = greedy_fill_classes(inst, slots)
    schedule.assert_valid()
    return schedule


@register_algorithm(
    "class-uniform-ptimes-3approx",
    requires=("has_class_uniform_processing_times",),
    guarantee=GUARANTEE,
    tags=("paper",),
    cost_features=("num_jobs", "num_machines", "num_classes"),
)
def class_uniform_ptimes_approximation(
    instance: Instance,
    *,
    precision: float = 0.02,
) -> AlgorithmResult:
    """The full 3(1+precision)-approximation via dual-approximation search."""
    start = time.perf_counter()
    _check_applicable(instance)
    bounds = makespan_bounds(instance)

    def decision(guess: float) -> Optional[Schedule]:
        return class_uniform_ptimes_decision(instance, guess)

    result = dual_approximation_search(instance, decision, precision=precision, bounds=bounds)
    runtime = time.perf_counter() - start
    return AlgorithmResult.from_schedule(
        "class-uniform-ptimes-3approx", result.schedule, runtime=runtime,
        guarantee=GUARANTEE * (1.0 + precision),
        meta={
            "accepted_guess": result.accepted_guess,
            "rejected_guess": result.rejected_guess,
            "search_iterations": result.iterations,
        },
    )
