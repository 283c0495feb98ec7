"""LPT-based constant-factor approximation for uniform machines (Lemma 2.1).

The paper bootstraps its dual-approximation PTAS with the following
``3(1 + 1/√3) ≈ 4.74``-approximation:

1. For every class ``k`` let ``J_k^s = {j : k_j = k, p_j < s_k}`` be its
   jobs smaller than the class's setup size.  Replace them by
   ``⌈(Σ_{j∈J_k^s} p_j) / s_k⌉`` placeholder jobs of size ``s_k``.
2. Run the classical LPT rule on uniformly related machines, ignoring
   classes and setups: sort all (original large + placeholder) jobs by
   non-increasing size and assign each to the machine on which it would
   finish earliest.
3. Re-add the setups required by the resulting assignment and replace the
   placeholders by the actual small jobs (each machine receives small jobs
   of a class up to the total size of the placeholders it got, over-packing
   by at most one job).

Because plain LPT is a ``(1 + 1/√3)``-approximation on uniformly related
machines (Kovács 2010), the whole procedure is a ``3(1 + 1/√3)``-
approximation (Lemma 2.1).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import AlgorithmResult
from repro.core.instance import Instance, MachineEnvironment
from repro.core.schedule import Schedule
from repro.runtime.registry import register_algorithm

__all__ = [
    "LPT_GUARANTEE",
    "lpt_uniform_with_setups",
    "lpt_without_setups",
    "lpt_assign_sizes",
]

#: The approximation guarantee proven in Lemma 2.1.
LPT_GUARANTEE: float = 3.0 * (1.0 + 1.0 / math.sqrt(3.0))

#: Kovács's bound for plain LPT on uniformly related machines.
PLAIN_LPT_GUARANTEE: float = 1.0 + 1.0 / math.sqrt(3.0)


def _require_uniform(instance: Instance) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract (job_sizes, setup_sizes, speeds) or raise for the wrong environment."""
    if not instance.is_uniform_like() or instance.job_sizes is None or instance.speeds is None:
        raise ValueError(
            "lpt_uniform_with_setups requires an identical or uniformly related instance "
            f"(got environment {instance.environment.value!r})")
    setup_sizes = instance.setup_sizes
    if setup_sizes is None:
        raise ValueError("uniform instance is missing setup_sizes")
    return instance.job_sizes, setup_sizes, instance.speeds


def lpt_assign_sizes(sizes: Sequence[float], speeds: Sequence[float]) -> np.ndarray:
    """Classical LPT on uniformly related machines, on raw sizes.

    Returns the machine index chosen for each size (in the order given).
    Sizes are considered in non-increasing order; each is assigned to the
    machine where it would *finish* first, i.e. minimising
    ``(work_i + size) / v_i``; ties go to the lowest machine index.  The
    loop runs on Python floats with the same IEEE operations as numpy:
    faster up to a few dozen machines, slower beyond.
    """
    sizes_arr = np.asarray(sizes, dtype=float)
    speeds_arr = np.asarray(speeds, dtype=float)
    if np.any(speeds_arr <= 0):
        raise ValueError("speeds must be positive")
    sizes_list, speed = sizes_arr.tolist(), speeds_arr.tolist()
    work = [0.0] * len(speed)
    assignment = [0] * len(sizes_list)
    for j in np.argsort(-sizes_arr, kind="stable").tolist():
        size = sizes_list[j]
        finish = [(w + size) / v for w, v in zip(work, speed)]
        i = finish.index(min(finish))
        assignment[j] = i
        work[i] += size
    return np.array(assignment, dtype=int)


@register_algorithm(
    "lpt-class-oblivious",
    environments=("identical", "uniform"),
    tags=("baseline", "fast"),
)
def lpt_without_setups(instance: Instance) -> AlgorithmResult:
    """Plain LPT ignoring classes and setups entirely (baseline).

    The resulting makespan still *charges* the setups implied by the final
    assignment (the schedule is evaluated on the true instance); the
    algorithm simply does not anticipate them, which is exactly the
    behaviour the class-aware algorithms improve on.
    """
    start = time.perf_counter()
    job_sizes, _, speeds = _require_uniform(instance)
    assignment = lpt_assign_sizes(job_sizes, speeds)
    schedule = Schedule(instance, assignment)
    runtime = time.perf_counter() - start
    return AlgorithmResult.from_schedule("lpt-class-oblivious", schedule, runtime=runtime)


@register_algorithm(
    "lpt-with-setups",
    environments=("identical", "uniform"),
    guarantee=LPT_GUARANTEE,
    tags=("paper", "fast"),
)
def lpt_uniform_with_setups(instance: Instance) -> AlgorithmResult:
    """The Lemma 2.1 algorithm: placeholder replacement + LPT + setup re-insertion."""
    start = time.perf_counter()
    inst = instance
    job_sizes, setup_sizes, speeds = _require_uniform(inst)
    n = inst.num_jobs

    # Step 1: split jobs into "large" (kept) and "small" (replaced) per class.
    large_jobs: List[int] = []
    small_jobs_by_class: Dict[int, List[int]] = {}
    placeholder_class: List[int] = []   # class of each placeholder
    placeholder_sizes: List[float] = []
    for k in inst.classes_present():
        members = inst.jobs_of_class(int(k))
        sizes_k = job_sizes[members]
        small_mask = sizes_k < setup_sizes[k]
        small = members[small_mask]
        large = members[~small_mask]
        large_jobs.extend(int(j) for j in large)
        if small.size:
            total_small = float(job_sizes[small].sum())
            count = int(math.ceil(total_small / setup_sizes[k])) if setup_sizes[k] > 0 else 0
            if setup_sizes[k] == 0:
                # Zero setup: "small" jobs (size < 0) cannot exist; treat all as large.
                large_jobs.extend(int(j) for j in small)
            else:
                small_jobs_by_class[int(k)] = [int(j) for j in small]
                placeholder_class.extend([int(k)] * count)
                placeholder_sizes.extend([float(setup_sizes[k])] * count)

    # Step 2: LPT over large jobs and placeholders together, ignoring setups.
    combined_sizes = np.concatenate([
        job_sizes[large_jobs] if large_jobs else np.zeros(0),
        np.asarray(placeholder_sizes, dtype=float),
    ])
    assignment_combined = (lpt_assign_sizes(combined_sizes, speeds)
                           if combined_sizes.size else np.zeros(0, dtype=int))

    schedule = Schedule(inst)
    num_large = len(large_jobs)
    for pos, j in enumerate(large_jobs):
        schedule.assign(j, int(assignment_combined[pos]))

    # Step 3: replace placeholders of each class by the actual small jobs.
    # Machine i holding r placeholders of class k offers capacity r * s_k;
    # small jobs are filled greedily, over-packing each machine by at most
    # one job (as in the proof of Lemma 2.1).
    placeholders_per_machine: Dict[int, List[int]] = {}
    for p_idx, k in enumerate(placeholder_class):
        i = int(assignment_combined[num_large + p_idx])
        placeholders_per_machine.setdefault(k, []).append(i)

    for k, jobs in small_jobs_by_class.items():
        machines = placeholders_per_machine.get(k, [])
        capacities: Dict[int, float] = {}
        machine_order: List[int] = []
        for i in machines:
            if i not in capacities:
                capacities[i] = 0.0
                machine_order.append(i)
            capacities[i] += float(setup_sizes[k])
        if not machine_order:
            # No placeholder was created (total small size rounded to 0
            # placeholders is impossible since count = ceil(...) >= 1 when
            # small jobs exist) — defensive fallback: fastest machine.
            machine_order = [int(np.argmax(speeds))]
            capacities[machine_order[0]] = float("inf")
        # Fill machines in order; over-pack by at most one job each.
        queue = sorted(jobs, key=lambda j: -job_sizes[j])
        cursor = 0
        for i in machine_order:
            remaining = capacities[i]
            while cursor < len(queue) and remaining > 0:
                j = queue[cursor]
                schedule.assign(j, i)
                remaining -= float(job_sizes[j])
                cursor += 1
        # Anything left (possible only through floating-point slack) goes to
        # the last placeholder machine.
        while cursor < len(queue):
            schedule.assign(queue[cursor], machine_order[-1])
            cursor += 1

    runtime = time.perf_counter() - start
    result = AlgorithmResult.from_schedule(
        "lpt-with-setups", schedule, runtime=runtime, guarantee=LPT_GUARANTEE,
        meta={
            "num_placeholders": len(placeholder_class),
            "num_large_jobs": num_large,
            "plain_lpt_guarantee": PLAIN_LPT_GUARANTEE,
        },
    )
    return result
