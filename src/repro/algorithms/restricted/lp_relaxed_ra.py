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

Under class-uniform restrictions (Section 3.3.1) every eligible machine of
class ``k`` sees the same ``p̄_k`` and ``s_k``, so the coefficient of
``x̄_ik`` in (11) is a per-class constant ``w_k(T) = p̄_k + α_k(T)·s_k``
and, with ``f_ik = w_k·x̄_ik``, (11)–(14) is a transportation problem:
class ``k`` ships ``w_k(T)`` to the machines of ``M_k`` (if ``s_k ≤ T``),
each machine takes at most ``T``.  :class:`RelaxedRAFlow` decides it with a
max flow and returns a solution whose support is a forest, so the
Theorem 3.10 algorithm needs no LP solver.  :func:`solve_lp_relaxed_ra`
with ``variant="restrictions"`` stays as the reference the tests compare
the flow against; the ``"ptimes"`` variant's constraint (16) has
machine-dependent coefficients (a generalised flow), so Theorem 3.11 keeps
the LP.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional

import networkx as nx
import numpy as np
from scipy import sparse

from repro.core.instance import Instance
from repro.lp.model import Model
from repro.lp.solution import SolutionStatus

__all__ = ["RelaxedRAResult", "RelaxedRAFlow", "solve_lp_relaxed_ra", "class_workload_matrix"]


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


#: The flow oracle's tolerances are relative (to the guess ``T`` or to the
#: total supply), so scaling every time by ``2^j`` scales every intermediate
#: value exactly and leaves the solution unchanged.  ``_REL_TOL`` bounds
#: constraint slack (as the LP's feasibility tolerance does), ``_FLOW_TOL``
#: the residual capacity still worth augmenting.
_REL_TOL = 1e-9
_FLOW_TOL = 1e-12


class RelaxedRAFlow:
    """LP-RelaxedRA (11)–(14) under class-uniform restrictions, as a max flow.

    Build it once per instance (the per-class ``p̄_k``, ``s_k`` and ``M_k``
    are computed here), then call :meth:`solve` per guess.  The verdict is
    LP-RelaxedRA's: the guess is feasible iff every class's supply
    ``w_k(T)`` ships.

    Raises
    ------
    ValueError
        If a class's workload or setup differs across its eligible machines
        (uniform machines with distinct speeds, say): then (11) is not a
        transportation problem.
    """

    def __init__(self, instance: Instance) -> None:
        self.workload = class_workload_matrix(instance)
        self.per_job = _per_job_time_matrix(instance)
        setups = instance.setups
        eligible = np.isfinite(setups) & np.isfinite(self.workload)
        self.classes: List[int] = [int(k) for k in instance.classes_present()]
        self.p: List[float] = []
        self.s: List[float] = []
        self.machines: List[List[int]] = []
        for k in self.classes:
            rows = np.flatnonzero(eligible[:, k])
            p, s = self.workload[rows, k], setups[rows, k]
            if rows.size and (np.any(p != p[0]) or np.any(s != s[0])):
                raise ValueError(
                    f"class {k}: workload or setup differs across its eligible machines, "
                    "so LP-RelaxedRA is not a transportation problem")
            self.p.append(float(p[0]) if rows.size else 0.0)
            self.s.append(float(s[0]) if rows.size else 0.0)
            self.machines.append([int(i) for i in rows])
        self.num_machines = instance.num_machines
        #: For each machine, the positions (in ``classes``) of the classes it serves.
        self.served: List[List[int]] = [[] for _ in range(self.num_machines)]
        for c, rows in enumerate(self.machines):
            for i in rows:
                self.served[i].append(c)

    def _infeasible(self, guess: float) -> RelaxedRAResult:
        return RelaxedRAResult(False, guess, np.zeros_like(self.workload),
                               self.workload, self.per_job)

    def _supplies(self, guess: float) -> Optional[List[float]]:
        """``w_k(T)`` per class, or ``None`` if some class has no edge."""
        supply = []
        for p, s, rows in zip(self.p, self.s, self.machines):
            if not rows or s > guess * (1.0 + _REL_TOL):  # constraint (14)
                return None
            if s == 0.0:
                supply.append(p)
            elif guess > s:
                supply.append(p + max(1.0, p / (guess - s)) * s)
            else:  # s == T within tolerance: no room for α, as in the LP
                supply.append(p + s)
        return supply

    def solve(self, guess: float) -> RelaxedRAResult:
        """Decide LP-RelaxedRA for ``guess``; the feasible solution has forest support."""
        guess = float(guess)
        supply = self._supplies(guess)
        if supply is None:
            return self._infeasible(guess)
        total = sum(supply)
        if total > self.num_machines * guess * (1.0 + _REL_TOL):
            return self._infeasible(guess)
        flow = self._max_flow(supply, guess)
        shipped = sum(sum(f.values()) for f in flow)
        if total - shipped > _REL_TOL * total:
            return self._infeasible(guess)
        self._cancel_cycles(flow)
        # Dividing by what each class shipped keeps (12) exact; (11) then
        # exceeds T by at most the unshipped total, under _REL_TOL·total.
        x = np.zeros_like(self.workload)
        for c, f in enumerate(flow):
            sent = sum(f.values())
            for i, amount in f.items():
                x[i, self.classes[c]] = amount / sent if sent > 0 else 1.0
        return RelaxedRAResult(True, guess, x, self.workload, self.per_job)

    def _max_flow(self, supply: List[float], guess: float) -> List[Dict[int, float]]:
        """``flow[c][i]``: whole classes first, then BFS augmenting paths."""
        eps = _FLOW_TOL * guess
        room = [guess] * self.num_machines
        flow: List[Dict[int, float]] = [{} for _ in supply]
        rest = [0.0] * len(supply)
        # Place each class whole on its roomiest machine, largest first.
        for c in sorted(range(len(supply)), key=lambda c: -supply[c]):
            i = max(self.machines[c], key=room.__getitem__)
            if supply[c] <= room[i]:
                room[i] -= supply[c]
                flow[c][i] = supply[c]
            else:
                rest[c] = supply[c]
        # Ship the rest along shortest augmenting paths in the residual graph.
        while True:
            from_machine = {}  # machine -> class it was reached from (forward edge)
            from_class = {c: None for c in range(len(rest)) if rest[c] > eps}
            queue = deque(from_class)
            end = None
            while queue and end is None:
                c = queue.popleft()
                for i in self.machines[c]:
                    if i in from_machine:
                        continue
                    from_machine[i] = c
                    if room[i] > eps:
                        end = i
                        break
                    for back in self.served[i]:  # reverse edges out of a full machine
                        if back not in from_class and flow[back].get(i, 0.0) > eps:
                            from_class[back] = i
                            queue.append(back)
            if end is None:
                return flow
            path = []
            delta, i = room[end], end
            while True:
                c = from_machine[i]
                path.append((c, i))
                i = from_class[c]
                if i is None:
                    delta = min(delta, rest[c])
                    break
                delta = min(delta, flow[c][i])
            room[end] -= delta
            rest[c] -= delta
            for c, i in path:
                flow[c][i] = flow[c].get(i, 0.0) + delta
                back = from_class[c]
                if back is not None:
                    flow[c][back] -= delta
                    if flow[c][back] <= eps:
                        del flow[c][back]

    def _cancel_cycles(self, flow: List[Dict[int, float]]) -> None:
        """Push flow around support cycles until the support is a forest.

        Each push keeps every class's shipment and machine's load and empties
        at least one edge; of the two directions, the one moving less flow
        is taken.
        """
        support = nx.Graph()
        support.add_edges_from((("class", c), ("machine", i))
                               for c, f in enumerate(flow) for i in f)
        # A forest has one edge fewer than nodes per component; counting
        # components (and the flow's edges) is far cheaper than a find_cycle
        # that finds none.
        while sum(map(len, flow)) > (support.number_of_nodes()
                                     - nx.number_connected_components(support)):
            cycle = nx.find_cycle(support)
            # Consecutive edges share a node, so alternate ones gain and lose.
            edges = [(u[1], v[1]) if u[0] == "class" else (v[1], u[1]) for u, v in cycle]
            even, odd = edges[0::2], edges[1::2]
            gain, lose = (even, odd) if (min(flow[c][i] for c, i in odd)
                                         <= min(flow[c][i] for c, i in even)) else (odd, even)
            delta = min(flow[c][i] for c, i in lose)
            for c, i in gain:
                flow[c][i] += delta
            for c, i in lose:
                flow[c][i] -= delta
                if flow[c][i] <= 0.0:
                    del flow[c][i]
                    support.remove_edge(("class", c), ("machine", i))
