"""The linear relaxation of ILP-UM for a fixed makespan guess ``T``.

This is the fractional program the randomized rounding of Section 3.1
rounds: constraints (1)–(5) of ILP-UM with the integrality constraint (3)
replaced by ``0 ≤ x_ij, y_ik ≤ 1``.  The feasibility question "is there a
fractional solution for guess ``T``?" is answered by minimising the maximum
machine load under constraints (2), (4), (5) and checking whether the
optimum is at most ``T``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.ilp_um import ilp_um_model
from repro.core.instance import Instance
from repro.lp.solution import SolutionStatus

__all__ = ["LPRelaxationResult", "solve_ilp_um_relaxation"]


@dataclass
class LPRelaxationResult:
    """Fractional solution of the ILP-UM relaxation for a makespan guess ``T``.

    Attributes
    ----------
    feasible:
        Whether a fractional solution with maximum load at most ``T`` exists
        (within a small numerical tolerance).
    guess:
        The makespan guess the relaxation was solved for.
    fractional_makespan:
        The minimum achievable fractional maximum load under constraint (5)
        for this guess.
    x:
        ``(m, n)`` array of fractional assignment values ``x_ij`` (zero for
        pairs excluded by constraint (5) / ineligibility).
    y:
        ``(m, K)`` array of fractional setup values ``y_ik``.
    """

    feasible: bool
    guess: float
    fractional_makespan: float
    x: np.ndarray
    y: np.ndarray

    def job_distribution(self, job: int) -> np.ndarray:
        """The fractional distribution of ``job`` over machines (sums to 1 when feasible)."""
        return self.x[:, job]


#: What :func:`solve_ilp_um_relaxation` remembers per eligibility mask:
#: ``(fractional_makespan, x, y)``.
RelaxationMemo = Dict[bytes, Tuple[float, np.ndarray, np.ndarray]]


def solve_ilp_um_relaxation(instance: Instance, guess: float,
                            *, tolerance: float = 1e-6,
                            memo: Optional[RelaxationMemo] = None) -> LPRelaxationResult:
    """Solve the LP relaxation of ILP-UM for makespan guess ``guess``.

    The LP minimises an auxiliary variable ``Z`` bounding every machine load
    (so the call both answers feasibility for ``guess`` and returns the best
    fractional load achievable under the guess-dependent eligibility
    filtering of constraint (5)).

    ``T`` enters the LP only through that filtering, so guesses with the
    same eligibility masks pose the same LP.  Given a ``memo`` dict (one per
    instance — keys are the masks alone), such a guess reuses the first
    solve and only judges feasibility anew; the hit's ``x``/``y`` arrays
    are shared with the first result.
    """
    inst = instance
    y_mask = np.isfinite(inst.setups) & (inst.setups <= guess + tolerance)
    # Constraint (5), and x_ij needs its class's setup column.
    x_mask = (np.isfinite(inst.processing) & (inst.processing <= guess + tolerance)
              & y_mask[:, inst.job_classes])
    key = x_mask.tobytes() + y_mask.tobytes()
    if memo is not None and key in memo:
        fractional, x, y = memo[key]
    else:
        fractional, x, y = _solve(inst, x_mask, y_mask)
        if memo is not None:
            memo[key] = fractional, x, y
    feasible = math.isfinite(fractional) and fractional <= guess * (1.0 + 1e-9) + tolerance
    return LPRelaxationResult(
        feasible=feasible, guess=float(guess), fractional_makespan=fractional, x=x, y=y)


def _solve(inst: Instance, x_mask: np.ndarray,
           y_mask: np.ndarray) -> Tuple[float, np.ndarray, np.ndarray]:
    """``(fractional makespan, x, y)``; ``inf`` and zeros when infeasible."""
    x = np.zeros((inst.num_machines, inst.num_jobs))
    y = np.zeros((inst.num_machines, inst.num_classes))
    # Constraint (2): a job that lost all its machines to the filtering
    # makes the guess infeasible outright.
    if not x_mask.any(axis=0).all():
        return float("inf"), x, y
    model, x_col, y_col = ilp_um_model(inst, x_mask, y_mask, name=f"lp-um-{inst.name}")
    sol = model.solve()
    if sol.status is not SolutionStatus.OPTIMAL:
        return float("inf"), x, y
    values = np.where(sol.values > 0.0, sol.values, 0.0)
    x[x_mask] = values[x_col[x_mask]]
    y[y_mask] = values[y_col[y_mask]]
    return float(sol.objective), x, y
