"""Schedules (job-to-machine assignments) and their load accounting.

A schedule in the batch model of Section 1.1 is fully described by the
mapping ``σ : J → M``: machine ``i`` processes the jobs of each assigned
class in one contiguous batch and pays ``s_ik`` once per class it touches,
so its load is

``L_i = Σ_{j ∈ σ⁻¹(i)} p_ij + Σ_{k ∈ classes(σ⁻¹(i))} s_ik``.

The class below stores the assignment as an integer NumPy array
(``-1`` = unassigned) and computes all loads in one sequential
``np.bincount``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.core.instance import Instance

__all__ = ["Schedule", "UNASSIGNED"]

UNASSIGNED: int = -1


class Schedule:
    """An assignment of jobs to machines for a given :class:`Instance`.

    It pickles as the instance and the assignment's raw ``int`` bytes
    (:meth:`__reduce__`), which is what a stored result holds.

    Parameters
    ----------
    instance:
        The instance being scheduled.
    assignment:
        Optional initial assignment; ``(n,)`` integer array with machine
        indices or ``UNASSIGNED``.
    """

    __slots__ = ("instance", "assignment")

    def __init__(self, instance: Instance, assignment: Optional[Sequence[int]] = None):
        self.instance = instance
        if assignment is None:
            self.assignment = np.full(instance.num_jobs, UNASSIGNED, dtype=int)
        else:
            arr = np.asarray(assignment, dtype=int)
            if arr.shape != (instance.num_jobs,):
                raise ValueError("assignment must have shape (n,)")
            self.assignment = arr.copy()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def assign(self, job: int, machine: int) -> None:
        """Assign ``job`` to ``machine`` (overwriting a previous assignment)."""
        if machine != UNASSIGNED and not (0 <= machine < self.instance.num_machines):
            raise ValueError(f"machine index {machine} out of range")
        self.assignment[job] = machine

    def assign_many(self, jobs: Iterable[int], machine: int) -> None:
        """Assign every job in ``jobs`` to ``machine``."""
        idx = np.fromiter((int(j) for j in jobs), dtype=int)
        if idx.size:
            if machine != UNASSIGNED and not (0 <= machine < self.instance.num_machines):
                raise ValueError(f"machine index {machine} out of range")
            self.assignment[idx] = machine

    def unassign(self, job: int) -> None:
        """Remove ``job`` from its machine."""
        self.assignment[job] = UNASSIGNED

    def copy(self) -> "Schedule":
        """An independent copy sharing the (immutable) instance."""
        return Schedule(self.instance, self.assignment)

    def __reduce__(self):
        """Pickle the assignment as raw bytes: smaller and faster than an array."""
        return _restore_schedule, (self.instance, self.assignment.tobytes())

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def is_complete(self) -> bool:
        """Whether every job has been assigned to some machine."""
        return bool(np.all(self.assignment != UNASSIGNED))

    def unassigned_jobs(self) -> np.ndarray:
        """Indices of jobs that are not yet assigned."""
        return np.flatnonzero(self.assignment == UNASSIGNED)

    def jobs_on(self, machine: int) -> np.ndarray:
        """Indices of the jobs assigned to ``machine``."""
        return np.flatnonzero(self.assignment == machine)

    def classes_on(self, machine: int) -> np.ndarray:
        """Classes with at least one job on ``machine`` (these incur a setup)."""
        jobs = self.jobs_on(machine)
        if jobs.size == 0:
            return np.empty(0, dtype=int)
        return np.unique(self.instance.job_classes[jobs])

    def machine_of(self, job: int) -> int:
        """Machine index of ``job`` (``UNASSIGNED`` if not placed)."""
        return int(self.assignment[job])

    # ------------------------------------------------------------------
    # load accounting
    # ------------------------------------------------------------------
    def processing_load(self, machine: int) -> float:
        """Processing time (without setups) accumulated on ``machine``."""
        jobs = self.jobs_on(machine)
        if jobs.size == 0:
            return 0.0
        return float(self.instance.processing[machine, jobs].sum())

    def setup_load(self, machine: int) -> float:
        """Total setup time machine ``machine`` pays for the classes it touches."""
        classes = self.classes_on(machine)
        if classes.size == 0:
            return 0.0
        return float(self.instance.setups[machine, classes].sum())

    def load(self, machine: int) -> float:
        """``L_i``: processing plus setup load on ``machine``."""
        return self.processing_load(machine) + self.setup_load(machine)

    def machine_loads(self) -> np.ndarray:
        """Vector of loads ``L_i`` for all machines, in one ``bincount``.

        Each machine's load is summed sequentially from zero: its jobs'
        processing times in job order, then one setup per class it
        touches, in class order.  Unassigned jobs contribute nothing.
        Assignments to ineligible machines contribute ``inf``.
        """
        inst = self.instance
        jobs = np.flatnonzero(self.assignment != UNASSIGNED)
        if jobs.size == 0:
            return np.zeros(inst.num_machines)
        machines = self.assignment[jobs]
        # Setup contribution: one setup per (machine, class) pair in use.
        used = np.zeros(inst.setups.shape, dtype=bool)
        used[machines, inst.job_classes[jobs]] = True
        pair_machines, pair_classes = np.nonzero(used)
        return np.bincount(
            np.concatenate((machines, pair_machines)),
            weights=np.concatenate((inst.processing[machines, jobs],
                                    inst.setups[pair_machines, pair_classes])),
            minlength=inst.num_machines)

    def makespan(self) -> float:
        """The maximum machine load (``inf`` if some job is on an ineligible machine)."""
        loads = self.machine_loads()
        return float(loads.max()) if loads.size else 0.0

    def num_setups(self) -> int:
        """Total number of (machine, class) setups paid across the schedule."""
        total = 0
        for i in range(self.instance.num_machines):
            total += int(self.classes_on(i).size)
        return total

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self, *, require_complete: bool = True) -> List[str]:
        """Return a list of problems with this schedule (empty = valid).

        Checks completeness (optional), machine index ranges, and that no
        job is placed on an ineligible machine.
        """
        inst = self.instance
        assignment = self.assignment
        placed = np.flatnonzero((assignment >= 0) & (assignment < inst.num_machines))
        ok = np.zeros(inst.num_jobs, dtype=bool)
        ok[placed] = np.isfinite(inst.processing[assignment[placed], placed])
        if not require_complete:
            ok |= assignment == UNASSIGNED
        problems: List[str] = []
        for j in np.flatnonzero(~ok).tolist():
            i = int(assignment[j])
            if i == UNASSIGNED:
                problems.append(f"job {j} is unassigned")
            elif not 0 <= i < inst.num_machines:
                problems.append(f"job {j} assigned to invalid machine {i}")
            else:
                problems.append(f"job {j} assigned to ineligible machine {i}")
        return problems

    def assert_valid(self, *, require_complete: bool = True) -> None:
        """Raise ``ValueError`` when :meth:`validate` finds problems."""
        problems = self.validate(require_complete=require_complete)
        if problems:
            raise ValueError("invalid schedule: " + "; ".join(problems[:5]))

    # ------------------------------------------------------------------
    # display
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """A short human-readable summary of the schedule."""
        loads = self.machine_loads()
        return (f"Schedule(makespan={self.makespan():.4g}, "
                f"mean_load={loads.mean():.4g}, setups={self.num_setups()}, "
                f"complete={self.is_complete})")

    def __repr__(self) -> str:
        return self.summary()


def _restore_schedule(instance: Instance, raw: bytes) -> Schedule:
    """Inverse of :meth:`Schedule.__reduce__` (``__init__`` copies the bytes)."""
    return Schedule(instance, np.frombuffer(raw, dtype=int))
