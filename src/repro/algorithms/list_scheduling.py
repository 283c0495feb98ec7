"""Greedy list-scheduling baselines.

These are *not* from the paper; they provide the comparison points of
experiment E7 (and quick upper bounds elsewhere):

* :func:`class_oblivious_list_schedule` — classic longest-processing-time
  list scheduling that ignores classes when choosing machines and only pays
  the setups afterwards.  Degrades badly when setups dominate, which is the
  behaviour motivating the paper's class-aware algorithms.
* :func:`class_aware_list_schedule` — greedy that accounts for the setup a
  job would trigger on each candidate machine (same procedure as
  :func:`repro.core.bounds.greedy_upper_bound`, exposed as an algorithm).
* :func:`best_machine_schedule` — every job on its individually best
  machine; the trivial baseline from step 3 of the rounding algorithm.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.algorithms.base import AlgorithmResult
from repro.core.bounds import greedy_upper_bound
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.runtime.registry import register_algorithm

__all__ = [
    "class_oblivious_list_schedule",
    "class_aware_list_schedule",
    "best_machine_schedule",
]


@register_algorithm("class-oblivious-list", tags=("baseline", "fast"))
def class_oblivious_list_schedule(instance: Instance) -> AlgorithmResult:
    """LPT-style list scheduling that ignores setup classes while placing jobs.

    Jobs are sorted by decreasing best-machine processing time and placed on
    the machine minimising (current processing load + processing time); the
    setups implied by the final assignment are charged afterwards.
    """
    start = time.perf_counter()
    inst = instance
    schedule = Schedule(inst)
    proc_loads = [0.0] * inst.num_machines
    columns = inst.processing.T.tolist()
    best_time = np.min(np.where(np.isfinite(inst.processing), inst.processing, np.inf), axis=0)
    order = np.argsort(-best_time)
    for j in order.tolist():
        # An ineligible machine's ``inf`` time makes its candidate ``inf``.
        candidate = [l + t for l, t in zip(proc_loads, columns[j])]
        i = candidate.index(min(candidate))
        schedule.assign(j, i)
        proc_loads[i] = candidate[i]
    runtime = time.perf_counter() - start
    return AlgorithmResult.from_schedule("class-oblivious-list", schedule, runtime=runtime)


@register_algorithm("class-aware-greedy", tags=("baseline", "fast"))
def class_aware_list_schedule(instance: Instance) -> AlgorithmResult:
    """Greedy list scheduling that charges the setup a job would trigger."""
    start = time.perf_counter()
    _, schedule = greedy_upper_bound(instance)
    runtime = time.perf_counter() - start
    return AlgorithmResult.from_schedule("class-aware-greedy", schedule, runtime=runtime)


@register_algorithm("best-machine", tags=("baseline", "fast"))
def best_machine_schedule(instance: Instance) -> AlgorithmResult:
    """Assign every job to its fastest eligible machine (argmin of ``p_ij``)."""
    start = time.perf_counter()
    inst = instance
    schedule = Schedule(inst)
    masked = np.where(np.isfinite(inst.processing), inst.processing, np.inf)
    targets = np.argmin(masked, axis=0)
    for j in range(inst.num_jobs):
        schedule.assign(j, int(targets[j]))
    runtime = time.perf_counter() - start
    return AlgorithmResult.from_schedule("best-machine", schedule, runtime=runtime)
