"""Solution objects returned by :class:`repro.lp.model.Model.solve`."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict

import numpy as np


class SolutionStatus(enum.Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    #: A feasible solution found before the solver hit its time/iteration
    #: limit.  The objective is an upper bound on the true optimum (for
    #: minimisation), within the solver's reported gap, but optimality was
    #: *not* proven.
    INCUMBENT = "incumbent"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


@dataclass
class Solution:
    """A (possibly infeasible) result of solving a model.

    Attributes
    ----------
    status:
        :class:`SolutionStatus` of the solve.
    objective:
        Objective value; ``nan`` unless the status is ``OPTIMAL`` or
        ``INCUMBENT``.
    values:
        Dense vector of variable values, one per model column.
    is_mip:
        Whether the integral variables were enforced.
    message:
        Raw solver message, useful when status is not ``OPTIMAL``.
    """

    status: SolutionStatus
    objective: float
    values: np.ndarray
    is_mip: bool = False
    message: str = ""
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def is_optimal(self) -> bool:
        """True iff the solver proved optimality."""
        return self.status is SolutionStatus.OPTIMAL

    @property
    def has_solution(self) -> bool:
        """True iff a feasible assignment is available (optimal or incumbent)."""
        return self.status in (SolutionStatus.OPTIMAL, SolutionStatus.INCUMBENT)
