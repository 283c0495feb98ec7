"""The LP relaxation of SetCover.

Used for integrality-gap measurements: Corollary 3.4 notes that the
``Ω(log n + log m)`` integrality gap of ILP-UM is inherited from the
classical SetCover gap, so experiment E4 reports both side by side.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.lp.model import Model
from repro.lp.solution import SolutionStatus
from repro.setcover.instance import SetCoverInstance

__all__ = ["lp_cover_value", "ilp_cover_value"]


def _build_cover_model(instance: SetCoverInstance, *, integral: bool) -> Model:
    """``min Σ_S x_S`` s.t. ``Σ_{S ∋ e} x_S ≥ 1`` for every element ``e``.

    One column per subset, one (negated, ``≤``) row per element; an element
    no subset contains keeps an empty, infeasible row.
    """
    n = instance.num_subsets
    return Model(c=np.ones(n),
                 a_ub=-sparse.csr_matrix(instance.membership_matrix().T, dtype=float),
                 b_ub=-np.ones(instance.universe_size), upper=np.ones(n),
                 integrality=np.ones(n, dtype=int) if integral else None,
                 name=f"setcover-{instance.name}")


def lp_cover_value(instance: SetCoverInstance) -> float:
    """Optimal value of the fractional SetCover LP."""
    if instance.universe_size == 0:
        return 0.0
    sol = _build_cover_model(instance, integral=False).solve()
    if sol.status is not SolutionStatus.OPTIMAL:
        raise RuntimeError(f"SetCover LP failed: {sol.message}")
    return float(sol.objective)


def ilp_cover_value(instance: SetCoverInstance, *, time_limit: float | None = 30.0) -> int:
    """Optimal integral cover size via the MILP backend (small/medium instances)."""
    if instance.universe_size == 0:
        return 0
    sol = _build_cover_model(instance, integral=True).solve(as_mip=True, time_limit=time_limit)
    if not sol.has_solution:
        raise RuntimeError(f"SetCover ILP failed: {sol.message}")
    return int(round(sol.objective))
