"""A thin linear-programming layer over SciPy's HiGHS solvers.

The paper's algorithms need three solver capabilities:

1. solving large *linear relaxations* (ILP-UM of Section 3, LP-RelaxedRA of
   Section 3.3) — handled by :func:`scipy.optimize.linprog`;
2. obtaining *extreme-point (basic) solutions*, which the pseudo-forest
   rounding of Section 3.3 relies on structurally — handled by the HiGHS
   dual-simplex backend;
3. solving small *integer programs* exactly, to measure approximation ratios
   against true optima — handled by :func:`scipy.optimize.milp`.

Each builder computes its program's coefficient matrices directly from
numpy eligibility masks, in a fixed column and row order, and wraps them in
a :class:`Model` (``c``, ``a_ub``/``b_ub``, ``a_eq``/``b_eq``, bounds and
optional integrality).  :meth:`Model.solve` returns a :class:`Solution`
whose ``values`` are indexed by column.
"""

from repro.lp.model import Model, SolverError
from repro.lp.solution import Solution, SolutionStatus

__all__ = [
    "Model",
    "Solution",
    "SolutionStatus",
    "SolverError",
]
