"""The :class:`Model` class: build LPs/MIPs and solve them with HiGHS.

Algorithms in :mod:`repro.algorithms` phrase their linear programs exactly as
in the paper (one constraint object per displayed inequality) and call
:meth:`Model.solve`.  The model compiles its constraints into a sparse
matrix once per solve; constraint rows are cached so repeated solves with a
different objective (as in the dual-approximation binary search, where only
the makespan guess ``T`` changes) stay cheap to rebuild.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import optimize, sparse

from repro.lp.expression import LinExpr, Variable, as_expr
from repro.lp.solution import Solution, SolutionStatus


class SolverError(RuntimeError):
    """Raised when the underlying solver reports an unexpected failure."""


class ObjectiveSense(enum.Enum):
    """Direction of optimisation."""

    MINIMIZE = "min"
    MAXIMIZE = "max"


class ConstraintSense(enum.Enum):
    """Relational operator of a constraint."""

    LE = "<="
    GE = ">="
    EQ = "=="


@dataclass
class Constraint:
    """A single linear constraint ``expr (<=, >=, ==) rhs``."""

    name: str
    expr: LinExpr
    sense: ConstraintSense
    rhs: float

    def violation(self, assignment: np.ndarray, tol: float = 1e-7) -> float:
        """Amount by which the constraint is violated under ``assignment``.

        Returns 0.0 when satisfied (within ``tol``).
        """
        lhs = self.expr.value(assignment)
        if self.sense is ConstraintSense.LE:
            return max(0.0, lhs - self.rhs - tol)
        if self.sense is ConstraintSense.GE:
            return max(0.0, self.rhs - lhs - tol)
        return max(0.0, abs(lhs - self.rhs) - tol)


class Model:
    """A linear / mixed-integer program.

    Example
    -------
    >>> m = Model("toy")
    >>> x = m.add_var("x", lower=0.0, upper=1.0)
    >>> y = m.add_var("y", lower=0.0)
    >>> m.add_constraint(x + 2.0 * y, ">=", 1.0)
    >>> m.set_objective(x + y, sense=ObjectiveSense.MINIMIZE)
    >>> sol = m.solve()
    >>> round(sol.objective, 6)
    0.5
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self._variables: List[Variable] = []
        self._constraints: List[Constraint] = []
        self._objective: LinExpr = LinExpr()
        self._sense: ObjectiveSense = ObjectiveSense.MINIMIZE

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        """Number of decision variables added so far."""
        return len(self._variables)

    @property
    def num_constraints(self) -> int:
        """Number of constraints added so far."""
        return len(self._constraints)

    @property
    def variables(self) -> Sequence[Variable]:
        """All variables in index order."""
        return tuple(self._variables)

    @property
    def constraints(self) -> Sequence[Constraint]:
        """All constraints in insertion order."""
        return tuple(self._constraints)

    def add_var(
        self,
        name: str,
        lower: float = 0.0,
        upper: float | None = None,
        integral: bool = False,
    ) -> Variable:
        """Add a decision variable and return its handle."""
        if upper is not None and upper < lower:
            raise ValueError(f"variable {name!r}: upper bound {upper} < lower bound {lower}")
        var = Variable(index=len(self._variables), name=name, lower=float(lower),
                       upper=None if upper is None else float(upper), integral=bool(integral))
        self._variables.append(var)
        return var

    def add_vars(
        self,
        count: int,
        prefix: str,
        lower: float = 0.0,
        upper: float | None = None,
        integral: bool = False,
    ) -> List[Variable]:
        """Add ``count`` variables named ``prefix[0] .. prefix[count-1]``."""
        return [
            self.add_var(f"{prefix}[{i}]", lower=lower, upper=upper, integral=integral)
            for i in range(count)
        ]

    def add_constraint(
        self,
        expr: Union[LinExpr, Variable, float],
        sense: Union[str, ConstraintSense],
        rhs: float,
        name: str | None = None,
    ) -> Constraint:
        """Add the constraint ``expr sense rhs`` and return it."""
        if isinstance(sense, str):
            sense = ConstraintSense(sense)
        constraint = Constraint(
            name=name or f"c{len(self._constraints)}",
            expr=as_expr(expr),
            sense=sense,
            rhs=float(rhs),
        )
        self._constraints.append(constraint)
        return constraint

    def set_objective(
        self,
        expr: Union[LinExpr, Variable, float],
        sense: ObjectiveSense = ObjectiveSense.MINIMIZE,
    ) -> None:
        """Set the linear objective and its direction."""
        self._objective = as_expr(expr)
        self._sense = sense

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def _compile(self) -> Tuple[np.ndarray, Optional[sparse.csr_matrix], Optional[np.ndarray],
                                Optional[sparse.csr_matrix], Optional[np.ndarray],
                                List[Tuple[float, Optional[float]]]]:
        """Build (c, A_ub, b_ub, A_eq, b_eq, bounds) for scipy."""
        n = self.num_vars
        c = np.zeros(n)
        for idx, coeff in self._objective.coeffs.items():
            c[idx] = coeff
        if self._sense is ObjectiveSense.MAXIMIZE:
            c = -c

        ub_rows: List[Tuple[Dict[int, float], float]] = []
        eq_rows: List[Tuple[Dict[int, float], float]] = []
        for con in self._constraints:
            if con.sense is ConstraintSense.LE:
                ub_rows.append((con.expr.coeffs, con.rhs - con.expr.constant))
            elif con.sense is ConstraintSense.GE:
                negated = {i: -v for i, v in con.expr.coeffs.items()}
                ub_rows.append((negated, -(con.rhs - con.expr.constant)))
            else:
                eq_rows.append((con.expr.coeffs, con.rhs - con.expr.constant))

        def build(rows):
            if not rows:
                return None, None
            data, row_idx, col_idx, rhs = [], [], [], []
            for r, (coeffs, b) in enumerate(rows):
                rhs.append(b)
                for idx, coeff in coeffs.items():
                    row_idx.append(r)
                    col_idx.append(idx)
                    data.append(coeff)
            mat = sparse.csr_matrix((data, (row_idx, col_idx)), shape=(len(rows), n))
            return mat, np.asarray(rhs, dtype=float)

        a_ub, b_ub = build(ub_rows)
        a_eq, b_eq = build(eq_rows)
        bounds = [(v.lower, v.upper) for v in self._variables]
        return c, a_ub, b_ub, a_eq, b_eq, bounds

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(
        self,
        *,
        as_mip: bool = False,
        vertex: bool = False,
        time_limit: float | None = None,
        mip_rel_gap: float = 0.0,
    ) -> Solution:
        """Solve the model.

        Parameters
        ----------
        as_mip:
            Enforce integrality of variables created with ``integral=True``.
        vertex:
            Request an extreme-point (basic) solution from the simplex
            backend.  Required by the pseudo-forest rounding of
            Section 3.3, whose correctness depends on the support graph of
            the LP solution being a pseudo-forest.
        time_limit:
            Optional wall-clock limit in seconds (MIP solves only).
        mip_rel_gap:
            Relative optimality gap accepted for MIP solves.
        """
        if self.num_vars == 0:
            return Solution(SolutionStatus.OPTIMAL, self._objective.constant,
                            np.zeros(0), is_mip=as_mip)
        c, a_ub, b_ub, a_eq, b_eq, bounds = self._compile()
        if as_mip:
            return self._solve_mip(c, a_ub, b_ub, a_eq, b_eq, bounds,
                                   time_limit=time_limit, mip_rel_gap=mip_rel_gap)
        return self._solve_lp(c, a_ub, b_ub, a_eq, b_eq, bounds, vertex=vertex)

    # -- LP path --------------------------------------------------------
    def _solve_lp(self, c, a_ub, b_ub, a_eq, b_eq, bounds, *, vertex: bool) -> Solution:
        method = "highs-ds" if vertex else "highs"
        result = optimize.linprog(
            c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method=method,
        )
        status = {
            0: SolutionStatus.OPTIMAL,
            2: SolutionStatus.INFEASIBLE,
            3: SolutionStatus.UNBOUNDED,
        }.get(result.status, SolutionStatus.ERROR)
        if status is SolutionStatus.ERROR:
            raise SolverError(f"linprog failed on model {self.name!r}: {result.message}")
        values = result.x if result.x is not None else np.full(len(bounds), np.nan)
        objective = float("nan")
        if status is SolutionStatus.OPTIMAL:
            objective = self._objective.value(values)
        return Solution(status, objective, np.asarray(values, dtype=float),
                        is_mip=False, message=str(result.message))

    # -- MIP path -------------------------------------------------------
    def _solve_mip(self, c, a_ub, b_ub, a_eq, b_eq, bounds, *,
                   time_limit: float | None, mip_rel_gap: float) -> Solution:
        constraints = []
        if a_ub is not None:
            constraints.append(optimize.LinearConstraint(a_ub, -np.inf, b_ub))
        if a_eq is not None:
            constraints.append(optimize.LinearConstraint(a_eq, b_eq, b_eq))
        integrality = np.array([1 if v.integral else 0 for v in self._variables])
        lower = np.array([b[0] for b in bounds], dtype=float)
        upper = np.array([np.inf if b[1] is None else b[1] for b in bounds], dtype=float)
        options: Dict[str, object] = {"mip_rel_gap": mip_rel_gap}
        if time_limit is not None:
            options["time_limit"] = time_limit
        result = optimize.milp(
            c,
            constraints=constraints or None,
            integrality=integrality,
            bounds=optimize.Bounds(lower, upper),
            options=options,
        )
        if result.status == 0:
            status = SolutionStatus.OPTIMAL
        elif result.status == 2:
            status = SolutionStatus.INFEASIBLE
        elif result.status == 3:
            status = SolutionStatus.UNBOUNDED
        elif result.status in (1, 4) and result.x is not None:
            # Hit the iteration/time limit (status 1, HiGHS model status
            # 13), or stopped otherwise (status 4, e.g. a node limit),
            # holding a feasible incumbent: report it honestly instead of
            # claiming optimality — the objective is only gap-optimal.
            status = SolutionStatus.INCUMBENT
        else:
            status = SolutionStatus.INFEASIBLE
        values = result.x if result.x is not None else np.full(len(bounds), np.nan)
        objective = float("nan")
        if status in (SolutionStatus.OPTIMAL, SolutionStatus.INCUMBENT) and result.x is not None:
            objective = self._objective.value(values)
        return Solution(status, objective, np.asarray(values, dtype=float),
                        is_mip=True, message=str(result.message),
                        meta={"mip_gap": getattr(result, "mip_gap", None)})

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def check_feasible(self, assignment: np.ndarray, tol: float = 1e-6) -> List[str]:
        """Return the names of constraints violated by ``assignment``."""
        violated = []
        for con in self._constraints:
            if con.violation(assignment, tol=tol) > 0:
                violated.append(con.name)
        for var in self._variables:
            val = assignment[var.index]
            if val < var.lower - tol or (var.upper is not None and val > var.upper + tol):
                violated.append(f"bounds[{var.name}]")
        return violated

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Model({self.name!r}, vars={self.num_vars}, "
                f"constraints={self.num_constraints})")
