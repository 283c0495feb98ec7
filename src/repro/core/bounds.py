"""Lower and upper bounds on the optimal makespan.

The dual approximation framework (Section 1.1.1) needs an interval that is
guaranteed to contain ``|Opt|``.  This module provides:

* combinatorial lower bounds valid in every machine environment
  (:func:`lower_bound`);
* the LP lower bound obtained from the relaxation of ILP-UM with the
  makespan as a variable (:func:`lp_lower_bound`) — also used to normalise
  measured approximation ratios on instances too large for the exact MILP;
* a cheap feasible schedule giving an upper bound (:func:`greedy_upper_bound`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.ilp_um import ilp_um_model
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.lp.solution import SolutionStatus

__all__ = [
    "BoundReport",
    "lower_bound",
    "lp_lower_bound",
    "greedy_upper_bound",
    "makespan_bounds",
]


@dataclass(frozen=True)
class BoundReport:
    """Bundle of the lower/upper bounds computed for an instance."""

    lower: float
    upper: float
    lp_lower: Optional[float] = None
    upper_schedule: Optional[Schedule] = None

    def width(self) -> float:
        """Multiplicative gap between the bounds (``upper / lower``)."""
        if self.lower <= 0:
            return float("inf") if self.upper > 0 else 1.0
        return self.upper / self.lower


def lower_bound(instance: Instance) -> float:
    """A combinatorial lower bound on the optimal makespan.

    Maximum of two quantities, both valid in every environment:

    * *job bound* — every job must run somewhere, paying its processing time
      plus its class's setup there: ``max_j min_i (p_ij + s_{i,k_j})``;
    * *volume bound* — total work divided by total speed, where each class
      contributes at least one setup on its cheapest machine.  For the
      unrelated environment the "speed" of a machine is taken as 1 and
      per-job / per-class minima are used, which keeps the bound valid.
    """
    inst = instance
    if inst.num_jobs == 0:
        return 0.0
    # Job bound.
    per_job_cost = inst.processing + inst.setups[:, inst.job_classes]
    job_bound = float(np.max(np.min(per_job_cost, axis=0)))

    # Volume bound.
    if inst.is_uniform_like() and inst.job_sizes is not None and inst.speeds is not None:
        classes = inst.classes_present()
        setup_volume = float(inst.setup_sizes[classes].sum()) if inst.setup_sizes is not None else 0.0
        volume = float(inst.job_sizes.sum()) + setup_volume
        volume_bound = volume / float(inst.speeds.sum())
        # On uniform machines no job (plus setup) can beat the fastest machine.
        return max(job_bound, volume_bound)
    # Unrelated / restricted: use the best processing time per job and the
    # cheapest setup per class spread over all machines.
    best_p = np.min(inst.processing, axis=0)
    best_p = np.where(np.isfinite(best_p), best_p, 0.0)
    classes = inst.classes_present()
    best_s = np.min(inst.setups[:, classes], axis=0) if classes.size else np.zeros(0)
    best_s = np.where(np.isfinite(best_s), best_s, 0.0)
    volume_bound = (float(best_p.sum()) + float(best_s.sum())) / inst.num_machines
    return max(job_bound, volume_bound)


def greedy_upper_bound(instance: Instance) -> Tuple[float, Schedule]:
    """A feasible schedule built by class-aware greedy list scheduling.

    Jobs are grouped by class; classes are considered in decreasing total
    size and each class's jobs are placed one by one on the machine that
    currently finishes them earliest (accounting for a setup if the class is
    new on that machine); ties go to the lowest machine index.  Always
    produces a feasible schedule, so its makespan is a valid upper bound on
    ``|Opt|``.  The placement loop runs on Python floats: an ineligible
    machine's ``inf`` processing time makes its candidate ``inf``.
    """
    inst = instance
    schedule = Schedule(inst)
    load = [0.0] * inst.num_machines
    columns = inst.processing.T.tolist()
    setup_rows = inst.setups.T.tolist()

    class_order = sorted(
        inst.classes_present().tolist(),
        key=lambda k: -float(np.sum(np.nan_to_num(
            np.min(inst.processing[:, inst.jobs_of_class(k)], axis=0), posinf=0.0))),
    )
    for k in class_order:
        jobs = inst.jobs_of_class(k)
        # Largest (best-machine) jobs first within the class.
        best_time = np.min(inst.processing[:, jobs], axis=0)
        order = jobs[np.argsort(-np.nan_to_num(best_time, posinf=np.inf))]
        setup_k = setup_rows[k]  # zeroed on each machine the class lands on
        for j in order.tolist():
            candidate = [l + p + s for l, p, s in zip(load, columns[j], setup_k)]
            i = candidate.index(min(candidate))
            if not math.isfinite(candidate[i]):
                raise ValueError(f"job {j} has no eligible machine")
            schedule.assign(j, i)
            load[i] = candidate[i]
            setup_k[i] = 0.0
    return schedule.makespan(), schedule


def lp_lower_bound(instance: Instance) -> float:
    """Optimal value of the LP relaxation of ILP-UM with ``T`` as a variable.

    The relaxation drops the ``p_ij > T ⇒ x_ij = 0`` filtering (constraint
    (5) of ILP-UM), which only weakens it, so the value remains a valid
    lower bound on the integral optimum.
    """
    inst = instance
    model, _, _ = ilp_um_model(inst, np.isfinite(inst.processing), np.isfinite(inst.setups),
                               name=f"lp-lower-{inst.name}", setups_first=False)
    sol = model.solve()
    if sol.status is not SolutionStatus.OPTIMAL:
        raise RuntimeError(f"LP lower bound solve failed: {sol.message}")
    return float(sol.objective)


def makespan_bounds(instance: Instance, *, use_lp: bool = False) -> BoundReport:
    """Compute a :class:`BoundReport` bracketing the optimal makespan."""
    lb = lower_bound(instance)
    ub, schedule = greedy_upper_bound(instance)
    lp_lb = None
    if use_lp:
        lp_lb = lp_lower_bound(instance)
        lb = max(lb, lp_lb)
    # Guard against degenerate all-zero instances.
    ub = max(ub, lb)
    return BoundReport(lower=lb, upper=ub, lp_lower=lp_lb, upper_schedule=schedule)
