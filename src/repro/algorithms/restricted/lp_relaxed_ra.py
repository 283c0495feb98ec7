"""LP-RelaxedRA: the class-level linear program of Section 3.3.

For a makespan guess ``T`` the program has one variable ``x̄_ik`` per
(machine, non-empty class) pair giving the *fraction of the workload* of
class ``k`` processed on machine ``i``:

.. math::

    \\sum_k \\bar x_{ik} (\\bar p_{ik} + \\alpha_{ik} s_{ik}) \\le T
        \\qquad \\forall i                           \\tag{11}

    \\sum_i \\bar x_{ik} = 1 \\qquad \\forall k        \\tag{12}

    \\bar x_{ik} \\ge 0                              \\tag{13}

    \\bar x_{ik} = 0 \\text{ if } s_{ik} > T          \\tag{14}

with ``p̄_ik`` the total workload of class ``k`` on machine ``i`` (``∞`` if
some job of the class is ineligible there) and
``α_ik = max{1, p̄_ik / (T - s_ik)}``.

For the class-uniform processing-times case (Section 3.3.2), constraint
(14) is replaced by (16): ``x̄_ik = 0`` whenever ``s_ik + p_ij > T`` for the
(common) per-job processing time of class ``k`` on machine ``i``.

An *extreme point* (vertex) solution is requested from the simplex backend
because the subsequent rounding relies on the support graph being a
pseudo-forest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.core.instance import Instance
from repro.lp.model import Model
from repro.lp.solution import SolutionStatus

__all__ = ["RelaxedRAResult", "solve_lp_relaxed_ra", "class_workload_matrix"]


@dataclass
class RelaxedRAResult:
    """Solution of LP-RelaxedRA for a makespan guess.

    Attributes
    ----------
    feasible:
        Whether the LP admits a solution for the guess.
    guess:
        The makespan guess ``T``.
    x:
        ``(m, K)`` array of class fractions ``x̄_ik`` (0 where no variable
        existed).
    workload:
        ``(m, K)`` array of class workloads ``p̄_ik`` (``inf`` marks
        ineligibility).
    per_job_time:
        ``(m, K)`` array of the common per-job processing time of each class
        (only meaningful in the class-uniform processing-times variant;
        ``nan`` otherwise).
    """

    feasible: bool
    guess: float
    x: np.ndarray
    workload: np.ndarray
    per_job_time: np.ndarray


def class_workload_matrix(instance: Instance) -> np.ndarray:
    """``p̄_ik`` for every machine and class (``inf`` where ineligible)."""
    inst = instance
    workload = np.zeros((inst.num_machines, inst.num_classes))
    for k in range(inst.num_classes):
        members = inst.jobs_of_class(k)
        if members.size == 0:
            continue
        block = inst.processing[:, members]
        sums = block.sum(axis=1)
        sums = np.where(np.isfinite(block).all(axis=1), sums, np.inf)
        workload[:, k] = sums
    return workload


def _per_job_time_matrix(instance: Instance) -> np.ndarray:
    """The common per-job processing time of each class on each machine.

    ``nan`` if a class is empty; ``inf`` if the class is ineligible on the
    machine.  Assumes (and does not verify) class-uniform processing times —
    callers that need the guarantee check
    :meth:`Instance.has_class_uniform_processing_times` first.
    """
    inst = instance
    times = np.full((inst.num_machines, inst.num_classes), np.nan)
    for k in range(inst.num_classes):
        members = inst.jobs_of_class(k)
        if members.size == 0:
            continue
        times[:, k] = inst.processing[:, members[0]]
    return times


def solve_lp_relaxed_ra(
    instance: Instance,
    guess: float,
    *,
    variant: str = "restrictions",
    tolerance: float = 1e-9,
) -> RelaxedRAResult:
    """Solve LP-RelaxedRA for makespan guess ``guess``.

    Parameters
    ----------
    variant:
        ``"restrictions"`` uses constraint (14) (Section 3.3.1);
        ``"ptimes"`` uses constraint (16) (Section 3.3.2).
    """
    if variant not in ("restrictions", "ptimes"):
        raise ValueError("variant must be 'restrictions' or 'ptimes'")
    inst = instance
    workload = class_workload_matrix(inst)
    per_job = _per_job_time_matrix(inst)
    setups = inst.setups
    present = np.zeros(inst.num_classes, dtype=bool)
    present[inst.classes_present()] = True
    if variant == "restrictions":
        fits = setups <= guess + tolerance  # constraint (14)
    else:
        fits = setups + per_job <= guess + tolerance  # constraint (16)
    mask = np.isfinite(setups) & np.isfinite(workload) & fits & present
    infeasible = RelaxedRAResult(False, float(guess), np.zeros_like(workload),
                                 workload, per_job)
    # Constraint (12) needs a column for every non-empty class.
    if not mask[:, present].any(axis=0).all():
        return infeasible

    # Columns class by class, machines in order within a class.
    col_t = np.full(mask.T.shape, -1)
    col_t[mask.T] = np.arange(np.count_nonzero(mask))
    col = col_t.T
    num_vars = np.count_nonzero(mask)
    mi, mk = np.nonzero(mask)
    # Constraint (11): machine capacity with the α_ik surcharge
    # α_ik = max{1, p̄_ik / (T - s_ik)}; where s_ik == T (within tolerance)
    # the class only fits with zero workload, so α stays 1.  A zero setup
    # has no surcharge even when a tiny T overflows α to inf.
    s, w = setups[mi, mk], workload[mi, mk]
    denom = guess - s
    alpha = np.ones(num_vars)
    room = denom > 0
    with np.errstate(over="ignore", invalid="ignore"):
        alpha[room] = np.maximum(1.0, w[room] / denom[room])
        surcharge = np.where(s > 0, alpha * s, 0.0)
    loaded = mask.any(axis=1)
    a_ub = sparse.csr_matrix(
        (w + surcharge, (np.cumsum(loaded)[mi] - 1, col[mi, mk])),
        shape=(np.count_nonzero(loaded), num_vars))
    # Constraint (12): each non-empty class fully distributed.
    a_eq = sparse.csr_matrix(
        (np.ones(num_vars), (np.cumsum(present)[mk] - 1, col[mi, mk])),
        shape=(np.count_nonzero(present), num_vars))
    # Any feasible point suffices; minimise total setup surcharge to bias the
    # solver toward sparse supports (still a vertex of the same polytope).
    c = np.zeros(num_vars)
    c[col[mi, mk]] = s
    model = Model(c=c, a_ub=a_ub, b_ub=np.full(a_ub.shape[0], float(guess)),
                  a_eq=a_eq, b_eq=np.ones(a_eq.shape[0]), upper=np.ones(num_vars),
                  name=f"lp-relaxed-ra-{inst.name}")
    sol = model.solve(vertex=True)
    if sol.status is not SolutionStatus.OPTIMAL:
        return infeasible
    x = np.zeros((inst.num_machines, inst.num_classes))
    x[mask] = np.where(sol.values > 0.0, sol.values, 0.0)[col[mask]]
    return RelaxedRAResult(True, float(guess), x, workload, per_job)
