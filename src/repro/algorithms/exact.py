"""Exact optima: the MILP formulation ILP-UM and a brute-force search.

The paper proves approximation factors relative to ``|Opt|``; to *measure*
them empirically we need optima (or at least lower bounds).  Two exact
solvers are provided:

* :func:`milp_optimal` — ILP-UM (Section 3) with the makespan ``T`` as a
  decision variable, solved with the HiGHS branch-and-bound backend.
  Practical up to a few hundred binary variables, i.e. the instance sizes
  used by experiments E1–E6.
* :func:`brute_force_optimal` — depth-first search with load-based pruning,
  exercised by tests on tiny instances to validate the MILP model itself.

Both respect ineligibility (``p_ij = ∞`` or ``s_ik = ∞``).
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from repro.algorithms.base import AlgorithmResult
from repro.core.ilp_um import ilp_um_model
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.lp.model import Model
from repro.runtime.registry import register_algorithm

__all__ = ["milp_optimal", "brute_force_optimal", "build_ilp_um"]


def build_ilp_um(instance: Instance, *, integral: bool = True,
                 makespan_guess: Optional[float] = None
                 ) -> Tuple[Model, np.ndarray, np.ndarray]:
    """Build ILP-UM (constraints (1)–(5) of Section 3) with ``T`` minimised.

    Returns ``(model, x_col, y_col)``: column 0 is ``T`` and
    ``x_col[i, j]`` / ``y_col[i, k]`` is the column of the assignment /
    setup variable, ``-1`` where the pair is ineligible (see
    :func:`repro.core.ilp_um.ilp_um_model` for the layout).

    When ``makespan_guess`` is given, constraint (5) — forbid ``x_ij`` for
    ``p_ij > T`` — is applied with that guess and ``T`` is additionally
    upper-bounded by it, matching the dual-approximation usage; otherwise
    constraint (5) is vacuous because ``T`` is free.
    """
    inst = instance
    y_mask = np.isfinite(inst.setups)
    x_mask = np.isfinite(inst.processing)
    if makespan_guess is not None:
        y_mask &= inst.setups <= makespan_guess + 1e-9
        x_mask &= inst.processing <= makespan_guess + 1e-9  # constraint (5)
    x_mask &= y_mask[:, inst.job_classes]
    unassignable = np.flatnonzero(~x_mask.any(axis=0))
    if unassignable.size:
        raise ValueError(f"job {unassignable[0]} has no machine satisfying the makespan guess")
    return ilp_um_model(inst, x_mask, y_mask, name=f"ilp-um-{inst.name}",
                        t_upper=makespan_guess, integral=integral)


@register_algorithm("milp-optimal", guarantee=1.0, tags=("exact",),
                    cost_features=("num_jobs", "num_machines", "num_classes"))
def milp_optimal(instance: Instance, *, time_limit: float | None = 60.0,
                 mip_rel_gap: float = 0.0) -> AlgorithmResult:
    """Solve ILP-UM exactly (or to ``mip_rel_gap``) and return the optimal schedule."""
    start = time.perf_counter()
    model, x_col, _ = build_ilp_um(instance, integral=True)
    sol = model.solve(as_mip=True, time_limit=time_limit, mip_rel_gap=mip_rel_gap)
    if not sol.has_solution:
        raise RuntimeError(f"MILP solve failed ({sol.status.value}): {sol.message}")
    x = np.where(x_col >= 0, sol.values[x_col], -np.inf)
    best = np.argmax(x, axis=0)  # the first machine holding the job's maximum
    unassigned = np.flatnonzero(x[best, np.arange(instance.num_jobs)] <= 0.5)
    if unassigned.size:
        raise RuntimeError(f"MILP solution does not assign job {unassigned[0]}")
    schedule = Schedule(instance, best)
    runtime = time.perf_counter() - start
    return AlgorithmResult.from_schedule(
        "milp-optimal", schedule, runtime=runtime, guarantee=1.0,
        meta={"objective": float(sol.objective), "mip_gap": sol.meta.get("mip_gap"),
              "solve_status": sol.status.value})


@register_algorithm("brute-force-optimal", guarantee=1.0, tags=("exact",))
def brute_force_optimal(instance: Instance, *, max_jobs: int = 12) -> AlgorithmResult:
    """Exact optimum by branch-and-bound over job assignments (tiny instances).

    Jobs are considered in decreasing best-machine size; the partial
    makespan prunes branches against the incumbent.  Complexity is
    ``O(m^n)`` in the worst case — a ``max_jobs`` guard refuses instances
    where that is clearly hopeless.
    """
    start = time.perf_counter()
    inst = instance
    if inst.num_jobs > max_jobs:
        raise ValueError(f"brute_force_optimal limited to {max_jobs} jobs, got {inst.num_jobs}")

    # Incumbent from the greedy baseline.
    from repro.core.bounds import greedy_upper_bound  # local import avoids a cycle

    best_makespan, best_schedule = greedy_upper_bound(inst)
    best_assignment = best_schedule.assignment.copy()

    order = np.argsort(-np.min(np.where(np.isfinite(inst.processing),
                                        inst.processing, np.inf), axis=0))
    loads = np.zeros(inst.num_machines)
    has_setup = np.zeros((inst.num_machines, inst.num_classes), dtype=bool)
    assignment = np.full(inst.num_jobs, -1, dtype=int)

    def recurse(pos: int) -> None:
        nonlocal best_makespan, best_assignment
        if pos == len(order):
            current = float(loads.max())
            if current < best_makespan - 1e-12:
                best_makespan = current
                best_assignment = assignment.copy()
            return
        j = int(order[pos])
        k = inst.job_class(j)
        for i in range(inst.num_machines):
            p = inst.processing[i, j]
            if not np.isfinite(p):
                continue
            extra_setup = 0.0 if has_setup[i, k] else inst.setups[i, k]
            if not np.isfinite(extra_setup):
                continue
            new_load = loads[i] + p + extra_setup
            if new_load >= best_makespan - 1e-12:
                continue
            had = has_setup[i, k]
            loads[i] = new_load
            has_setup[i, k] = True
            assignment[j] = i
            recurse(pos + 1)
            loads[i] = new_load - p - extra_setup
            has_setup[i, k] = had
            assignment[j] = -1

    recurse(0)
    schedule = Schedule(inst, best_assignment)
    runtime = time.perf_counter() - start
    return AlgorithmResult.from_schedule(
        "brute-force-optimal", schedule, runtime=runtime, guarantee=1.0)
