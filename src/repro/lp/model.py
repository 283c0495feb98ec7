"""The :class:`Model` class: an LP/MIP in matrix form, solved with HiGHS.

The builders of the paper's programs (ILP-UM and its relaxations, the LP
lower bound, LP-RelaxedRA, the SetCover LP) compute their coefficient
matrices directly from numpy eligibility masks and hand them to
:class:`Model`, which only passes them on to SciPy's HiGHS front ends.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np
from scipy import optimize, sparse

from repro.lp.solution import Solution, SolutionStatus


class SolverError(RuntimeError):
    """Raised when the underlying solver reports an unexpected failure."""


@dataclass(eq=False)
class Model:
    """The program ``min c·x`` s.t. ``a_ub x <= b_ub``, ``a_eq x == b_eq``,
    ``lower <= x <= upper``.

    ``lower`` defaults to zeros and ``upper`` to ``+inf``; ``integrality``
    (1 = integral, 0 = continuous, per column) is enforced only by
    ``solve(as_mip=True)``.  Constraint blocks without rows are dropped.

    Example
    -------
    >>> from scipy import sparse
    >>> m = Model(c=[1.0, 1.0], a_ub=sparse.csr_matrix([[-1.0, -2.0]]),
    ...           b_ub=[-1.0], upper=[1.0, np.inf])
    >>> sol = m.solve()
    >>> round(sol.objective, 6)
    0.5
    >>> m.num_vars, m.num_constraints
    (2, 1)
    """

    c: np.ndarray
    a_ub: Optional[sparse.spmatrix] = None
    b_ub: Optional[np.ndarray] = None
    a_eq: Optional[sparse.spmatrix] = None
    b_eq: Optional[np.ndarray] = None
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    integrality: Optional[np.ndarray] = None
    name: str = "model"

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.size
        self.lower = (np.zeros(n) if self.lower is None
                      else np.asarray(self.lower, dtype=float))
        self.upper = (np.full(n, np.inf) if self.upper is None
                      else np.asarray(self.upper, dtype=float))
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError(f"model {self.name!r}: bounds must have shape ({n},)")
        if np.any(self.upper < self.lower):
            raise ValueError(f"model {self.name!r}: an upper bound is below its lower bound")
        self.a_ub, self.b_ub = self._block(self.a_ub, self.b_ub, "ub")
        self.a_eq, self.b_eq = self._block(self.a_eq, self.b_eq, "eq")

    def _block(self, a, b, which: str):
        if a is None or a.shape[0] == 0:
            return None, None
        a = sparse.csr_matrix(a)
        b = np.asarray(b, dtype=float)
        if a.shape != (b.size, self.c.size):
            raise ValueError(f"model {self.name!r}: a_{which} has shape {a.shape}, "
                             f"expected ({b.size}, {self.c.size})")
        return a, b

    @property
    def num_vars(self) -> int:
        """Number of columns."""
        return int(self.c.size)

    @property
    def num_constraints(self) -> int:
        """Number of inequality plus equality rows."""
        return sum(a.shape[0] for a in (self.a_ub, self.a_eq) if a is not None)

    def _objective(self, values: np.ndarray) -> float:
        # Strictly left to right in column order: goldens pin these values,
        # and the blocked summation of np.dot could change their last bits.
        return float(np.cumsum(self.c * values)[-1])

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(
        self,
        *,
        vertex: bool = False,
        as_mip: bool = False,
        time_limit: float | None = None,
        mip_rel_gap: float = 0.0,
    ) -> Solution:
        """Solve the model.

        Parameters
        ----------
        vertex:
            Request an extreme-point (basic) solution from the simplex
            backend.  Required by the pseudo-forest rounding of
            Section 3.3, whose correctness depends on the support graph of
            the LP solution being a pseudo-forest.
        as_mip:
            Enforce ``integrality``.
        time_limit:
            Optional wall-clock limit in seconds (MIP solves only).
        mip_rel_gap:
            Relative optimality gap accepted for MIP solves.

        Raises
        ------
        SolverError
            The LP solver failed, or a MIP solve stopped at a limit before
            finding any feasible solution (nothing is proven either way).
        """
        if self.num_vars == 0:
            return Solution(SolutionStatus.OPTIMAL, 0.0, np.zeros(0), is_mip=as_mip)
        if as_mip:
            return self._solve_mip(time_limit=time_limit, mip_rel_gap=mip_rel_gap)
        return self._solve_lp(vertex=vertex)

    def _solve_lp(self, *, vertex: bool) -> Solution:
        result = optimize.linprog(
            self.c, A_ub=self.a_ub, b_ub=self.b_ub, A_eq=self.a_eq, b_eq=self.b_eq,
            bounds=np.column_stack([self.lower, self.upper]),
            method="highs-ds" if vertex else "highs",
        )
        status = {
            0: SolutionStatus.OPTIMAL,
            2: SolutionStatus.INFEASIBLE,
            3: SolutionStatus.UNBOUNDED,
        }.get(result.status, SolutionStatus.ERROR)
        if status is SolutionStatus.ERROR:
            raise SolverError(f"linprog failed on model {self.name!r}: {result.message}")
        return self._solution(status, result, is_mip=False)

    def _solve_mip(self, *, time_limit: float | None, mip_rel_gap: float) -> Solution:
        constraints = []
        if self.a_ub is not None:
            constraints.append(optimize.LinearConstraint(self.a_ub, -np.inf, self.b_ub))
        if self.a_eq is not None:
            constraints.append(optimize.LinearConstraint(self.a_eq, self.b_eq, self.b_eq))
        integrality = (np.zeros(self.num_vars, dtype=int) if self.integrality is None
                       else np.asarray(self.integrality, dtype=int))
        options: Dict[str, object] = {"mip_rel_gap": mip_rel_gap}
        if time_limit is not None:
            options["time_limit"] = time_limit
        # HiGHS's MIP solver writes debug lines straight to fd 1, past
        # ``disp=False`` and ``sys.stdout``: point fd 1 at the null device
        # for the solve only.
        sys.stdout.flush()
        saved_stdout = os.dup(1)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        try:
            result = optimize.milp(
                self.c,
                constraints=constraints or None,
                integrality=integrality,
                bounds=optimize.Bounds(self.lower, self.upper),
                options=options,
            )
        finally:
            os.dup2(saved_stdout, 1)
            os.close(saved_stdout)
        if result.status == 0:
            status = SolutionStatus.OPTIMAL
        elif result.status == 2:
            status = SolutionStatus.INFEASIBLE
        elif result.status == 3:
            status = SolutionStatus.UNBOUNDED
        elif result.x is not None:
            # Hit the iteration/time limit (status 1, HiGHS model status
            # 13), or stopped otherwise (status 4, e.g. a node limit),
            # holding a feasible incumbent: report it honestly instead of
            # claiming optimality — the objective is only gap-optimal.
            status = SolutionStatus.INCUMBENT
        else:
            # Stopped without an incumbent: infeasibility was not proven.
            limit = ("its time or iteration limit" if result.status == 1
                     else f"a limit (scipy status {result.status})")
            raise SolverError(f"milp on model {self.name!r} stopped at {limit} "
                              f"without a feasible solution: {result.message}")
        return self._solution(status, result, is_mip=True,
                              meta={"mip_gap": getattr(result, "mip_gap", None)})

    def _solution(self, status: SolutionStatus, result, *, is_mip: bool,
                  meta: Optional[Dict[str, object]] = None) -> Solution:
        if result.x is None:
            values = np.full(self.num_vars, np.nan)
        else:
            values = np.asarray(result.x, dtype=float)
        objective = float("nan")
        if result.x is not None and status in (SolutionStatus.OPTIMAL,
                                               SolutionStatus.INCUMBENT):
            objective = self._objective(values)
        return Solution(status, objective, values, is_mip=is_mip,
                        message=str(result.message), meta=meta or {})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Model({self.name!r}, vars={self.num_vars}, "
                f"constraints={self.num_constraints})")
