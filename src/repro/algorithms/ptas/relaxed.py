"""Relaxed schedules (Section 2.1, "Relaxed Schedule") and their verification.

A relaxed schedule partitions the jobs into *integral* jobs ``I`` (with an
assignment ``σ'``) and *fractional* jobs ``F``.  Its constraints:

* an integral fringe job sits on a machine of its native group; an integral
  core job of class ``k`` sits on a machine of the core group of ``k``;
* the relaxed load ``L'_i = Σ_{j∈σ'⁻¹(i)} p_j + Σ_{k: core job of k on i} s_k``
  (setups of fringe jobs are ignored) satisfies ``L'_i ≤ T·v_i``;
* the *space condition*: with ``F_g`` the fractional jobs native/core to
  group ``g``, ``W_g`` their total size plus one setup for every class with
  core group ``g`` that has a fractional core job but no fringe job,
  ``A_i = max{0, T·v_i − L'_i}`` and
  ``R_g = max{0, R_{g−1} + W_{g−2} − Σ_{i∈M_g∖M_{g+1}} A_i}``,
  it must hold that ``R_G = W_G = W_{G−1} = 0``
  (fractional jobs of group ``g`` are meant for machines of group ``g+2``
  and faster, where they are small).

Lemma 2.8 shows that a schedule of makespan ``T`` induces a relaxed
schedule of makespan ``T`` (:func:`relax_schedule`) and that a relaxed
schedule of makespan ``T`` can be converted into a schedule of makespan
``(1+O(ε))·T`` (:mod:`repro.algorithms.ptas.convert`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from repro.algorithms.ptas.groups import GroupStructure
from repro.core.schedule import Schedule, UNASSIGNED

__all__ = ["RelaxedSchedule", "relax_schedule"]


@dataclass
class RelaxedSchedule:
    """A relaxed schedule for a (simplified) uniform instance.

    Attributes
    ----------
    groups:
        The :class:`GroupStructure` (which also fixes the instance and the
        makespan guess).
    assignment:
        ``(n,)`` integer array: machine index for integral jobs,
        ``UNASSIGNED`` for fractional jobs.
    """

    groups: GroupStructure
    assignment: np.ndarray

    # ------------------------------------------------------------------
    @property
    def instance(self):
        return self.groups.instance

    @property
    def guess(self) -> float:
        return self.groups.guess

    def fractional_jobs(self) -> np.ndarray:
        """Indices of the fractional jobs ``F``."""
        return np.flatnonzero(self.assignment == UNASSIGNED)

    def integral_jobs(self) -> np.ndarray:
        """Indices of the integral jobs ``I``."""
        return np.flatnonzero(self.assignment != UNASSIGNED)

    # ------------------------------------------------------------------
    def relaxed_loads(self) -> List[float]:
        """``L'_i`` for every machine (sizes, not processing times; fringe setups ignored).

        Each load is summed job by job, then setup by setup.
        """
        inst = self.instance
        assert inst.job_sizes is not None and inst.setup_sizes is not None
        sizes = inst.job_sizes.tolist()
        setups = inst.setup_sizes.tolist()
        classes = inst.job_classes.tolist()
        fringe = self.groups.job_is_fringe.tolist()
        loads = [0.0] * inst.num_machines
        core_classes_on: List[Set[int]] = [set() for _ in range(inst.num_machines)]
        for j, i in enumerate(self.assignment.tolist()):
            if i == UNASSIGNED:
                continue
            loads[i] += sizes[j]
            if not fringe[j]:
                core_classes_on[i].add(classes[j])
        for i in range(inst.num_machines):
            for k in core_classes_on[i]:
                loads[i] += setups[k]
        return loads

    def free_space(self, loads: Optional[List[float]] = None) -> List[float]:
        """``A_i = max{0, T·v_i − L'_i}`` for every machine.

        ``loads`` are the :meth:`relaxed_loads`, computed here if not given.
        """
        assert self.instance.speeds is not None
        if loads is None:
            loads = self.relaxed_loads()
        return [max(0.0, cap - load)
                for cap, load in zip((self.guess * self.instance.speeds).tolist(), loads)]

    def fractional_group_load(self) -> Dict[int, float]:
        """``W_g`` for every group ``g`` with fractional jobs (missing keys mean 0)."""
        inst = self.instance
        assert inst.job_sizes is not None and inst.setup_sizes is not None
        sizes = inst.job_sizes.tolist()
        target = self.groups.job_group
        # A set, iterated in its own order: the sums below keep that order.
        frac = set(self.fractional_jobs().tolist())
        w: Dict[int, float] = {}
        for j in frac:
            g = target[j]
            w[g] = w.get(g, 0.0) + sizes[j]
        # One setup per class that (1) has core group g, (2) has no fringe
        # job, (3) has a fractional core job.
        for k in inst.classes_present().tolist():
            if self.groups.fringe_jobs_of_class(k):
                continue
            core = self.groups.core_jobs_of_class(k)
            if not any(j in frac for j in core):
                continue
            g = int(self.groups.class_core_group[k])
            w[g] = w.get(g, 0.0) + float(inst.setup_sizes[k])
        return w

    def reduced_accumulated_loads(self, w: Optional[Dict[int, float]] = None,
                                  free: Optional[List[float]] = None) -> Dict[int, float]:
        """``R_g`` for every group from the slowest to ``G`` (the space-condition recursion).

        ``w`` (the :meth:`fractional_group_load`) and ``free`` (the
        :meth:`free_space`) are computed here if not given.
        """
        if w is None:
            w = self.fractional_group_load()
        if free is None:
            free = self.free_space()
        groups_with_machines = self.groups.groups_with_machines()
        if not groups_with_machines:
            return {}
        g_max = max(groups_with_machines)
        g_min = min(min(groups_with_machines), min(w.keys(), default=0))
        r: Dict[int, float] = {}
        prev = 0.0
        for g in range(g_min, g_max + 1):
            free_g = sum(free[i] for i in self.groups.machines_only_in_group(g))
            value = max(0.0, prev + w.get(g - 2, 0.0) - free_g)
            r[g] = value
            prev = value
        return r

    # ------------------------------------------------------------------
    def violations(self) -> List[str]:
        """All ways in which this object fails to be a relaxed schedule of makespan ``T``."""
        problems: List[str] = []
        inst = self.instance
        assert inst.speeds is not None
        groups = self.groups
        for j, i in enumerate(self.assignment.tolist()):
            if i == UNASSIGNED:
                continue
            if not (0 <= i < inst.num_machines):
                problems.append(f"job {j} assigned to invalid machine {i}")
                continue
            machine_group_pair = groups.machine_groups[i]
            target = groups.job_group[j]
            if target not in machine_group_pair:
                problems.append(
                    f"job {j} (target group {target}) sits on machine {i} "
                    f"of groups {machine_group_pair}")
        loads = self.relaxed_loads()
        capacity = (self.guess * inst.speeds).tolist()
        tol = 1e-9 * max(1.0, max(capacity))
        for i in range(inst.num_machines):
            if loads[i] > capacity[i] + tol:
                problems.append(
                    f"machine {i}: relaxed load {loads[i]:.6g} exceeds T·v_i = {capacity[i]:.6g}")
        # Space condition.
        w = self.fractional_group_load()
        r = self.reduced_accumulated_loads(w, self.free_space(loads))
        g_max = max(self.groups.groups_with_machines(), default=0)
        tol_w = 1e-9 * max(1.0, sum(w.values()) if w else 1.0)
        if w.get(g_max, 0.0) > tol_w:
            problems.append(f"W_G = {w[g_max]:.6g} > 0")
        if w.get(g_max - 1, 0.0) > tol_w:
            problems.append(f"W_(G-1) = {w[g_max - 1]:.6g} > 0")
        if r.get(g_max, 0.0) > tol_w:
            problems.append(f"R_G = {r[g_max]:.6g} > 0")
        return problems

    def is_valid(self) -> bool:
        """Whether :meth:`violations` is empty."""
        return not self.violations()


def relax_schedule(schedule: Schedule, groups: GroupStructure) -> RelaxedSchedule:
    """Turn a regular schedule into a relaxed schedule (first half of Lemma 2.8).

    Fringe jobs that already sit on a machine of their native group and core
    jobs that sit on a machine of their class's core group stay integral;
    every other job becomes fractional.
    """
    inst = groups.instance
    assignment = np.full(inst.num_jobs, UNASSIGNED, dtype=int)
    for j, i in enumerate(schedule.assignment.tolist()):
        if i != UNASSIGNED and groups.job_group[j] in groups.machine_groups[i]:
            assignment[j] = i
    return RelaxedSchedule(groups=groups, assignment=assignment)

