"""Converting a relaxed schedule into a regular schedule (proof of Lemma 2.8).

The constructive argument of the paper, implemented literally:

* integral jobs keep their machines;
* speed groups are processed from slowest to fastest; when group ``g`` is
  processed, the fractional jobs whose native/core group is ``g − 2`` (for
  the slowest machine group: every fractional job of an even slower group)
  become available, because they are *small* on the machines of group ``g``
  and faster;
* available fractional core jobs of a class ``k`` are split three ways:

  - total size larger than ``s_k/ε`` → they join the greedy sequence as
    individual jobs (adding the setup later costs at most a ``1+ε`` factor),
  - class has a fringe job → they are parked on the machine of one of the
    class's fringe jobs (at most a ``1+ε`` increase, since a fringe job has
    size at least ``s_k/ε²``),
  - otherwise → they are wrapped into a *container* together with one setup
    (total at most ``(1+1/ε)·s_k``, which is small on the target machines);

* fringe fractional jobs and containers form a sequence that greedily fills
  the machines of ``M_g∖M_{g+1}`` whose relaxed load is below ``T·v_i``,
  overfilling each by at most one small object (factor ``1+ε``);
* finally the missing setups are charged (another ``(1+ε)²``-ish factor).

The space condition of the relaxed schedule guarantees the sequence is
exhausted by the time the fastest group has been processed; as a defensive
measure any residue (possible only through floating-point slack) is placed
on the fastest machines.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.algorithms.ptas.groups import GroupStructure
from repro.algorithms.ptas.relaxed import RelaxedSchedule
from repro.core.schedule import Schedule, UNASSIGNED

__all__ = ["convert_relaxed_to_schedule"]


@dataclass
class _SequenceItem:
    """An item of the greedy fill sequence: a single job or a container of jobs."""

    jobs: List[int]
    total_size: float
    klass: Optional[int] = None     # set for core jobs / containers (used for ordering)


def convert_relaxed_to_schedule(relaxed: RelaxedSchedule) -> Schedule:
    """Materialise a regular schedule from a relaxed schedule (Lemma 2.8)."""
    groups = relaxed.groups
    inst = groups.instance
    assert inst.job_sizes is not None and inst.setup_sizes is not None and inst.speeds is not None
    sizes = inst.job_sizes.astype(float)
    setups = inst.setup_sizes.tolist()
    classes = inst.job_classes.tolist()
    eps = groups.params.epsilon
    guess = relaxed.guess
    capacity = (guess * inst.speeds.astype(float)).tolist()

    # Integral jobs keep their machines.  Track the "fill load" used by the
    # greedy procedure: job sizes plus the setups of core classes (the
    # relaxed-load convention).
    assignment = relaxed.assignment.tolist()
    fill_load = relaxed.relaxed_loads()

    # Group the fractional jobs by the group they become available in.
    frac_by_group: Dict[int, List[int]] = {}
    for j in relaxed.fractional_jobs().tolist():
        frac_by_group.setdefault(groups.job_group[j], []).append(j)

    machine_groups_present = groups.groups_with_machines()
    if not machine_groups_present:
        # No machines at all — nothing to do (degenerate instance).
        return Schedule(inst, assignment)
    g_min, g_max = machine_groups_present[0], machine_groups_present[-1]

    postponed_f1: List[Tuple[int, List[int]]] = []   # (class, jobs) parked next to a fringe job
    sequence: Deque[_SequenceItem] = deque()

    def release_jobs(jobs: List[int]) -> None:
        """Partition newly available fractional jobs into F1 / F2 / F3 and extend the sequence."""
        fringe_items: List[_SequenceItem] = []
        core_by_class: Dict[int, List[int]] = {}
        for j in jobs:
            if groups.job_is_fringe[j]:
                fringe_items.append(_SequenceItem(jobs=[j], total_size=float(sizes[j])))
            else:
                core_by_class.setdefault(classes[j], []).append(j)
        containers: List[_SequenceItem] = []
        core_f3: List[_SequenceItem] = []
        for k, members in core_by_class.items():
            total = float(sizes[members].sum())
            if total > setups[k] / eps:
                core_f3.extend(_SequenceItem(jobs=[j], total_size=float(sizes[j]), klass=k)
                               for j in members)
            elif groups.fringe_jobs_of_class(k):
                postponed_f1.append((k, list(members)))
            else:
                containers.append(_SequenceItem(
                    jobs=list(members), total_size=total + setups[k], klass=k))
        # Sequence order: containers and fringe jobs in any order, core F3
        # jobs sorted by class at the end (so consecutive jobs of a class
        # land on the same machine and share their setup).
        core_f3.sort(key=lambda item: (item.klass, -item.total_size))
        sequence.extend(containers)
        sequence.extend(fringe_items)
        sequence.extend(core_f3)

    def place(item: _SequenceItem, i: int) -> None:
        for j in item.jobs:
            assignment[j] = i
        fill_load[i] += item.total_size

    for g in range(g_min, g_max + 1):
        if g == g_min:
            available: List[int] = []
            for gg, jobs in frac_by_group.items():
                if gg <= g - 2:
                    available.extend(jobs)
        else:
            available = list(frac_by_group.get(g - 2, []))
        if available:
            release_jobs(available)
        if not sequence:
            continue
        # Fill the machines of M_g \ M_{g+1} that still have space.  The
        # paper fills them one after the other up to T·v_i; filling the same
        # machines in balanced order (always the one with the lowest
        # relative load) places exactly the same total amount — the stopping
        # condition "no machine below T·v_i is left" is unchanged — but
        # keeps the measured makespan low for practically-sized ε.
        group_machines = groups.machines_only_in_group(g)
        while sequence:
            open_machines = [i for i in group_machines if fill_load[i] < capacity[i]]
            if not open_machines:
                break
            place(sequence.popleft(),
                  min(open_machines, key=lambda mi: fill_load[mi] / capacity[mi]))

    # Fractional jobs of the two fastest groups should not exist (space
    # condition) — but release anything not yet handled so the schedule is
    # complete even when the caller ignored a violated space condition.
    leftover_jobs = [j for gg, jobs in frac_by_group.items() if gg > g_max - 2
                     for j in jobs if assignment[j] == UNASSIGNED]
    if leftover_jobs:
        release_jobs(leftover_jobs)

    # Defensive: drain any residue onto the fastest machines (round robin by
    # least fill load relative to speed).
    speeds = inst.speeds.tolist()
    while sequence:
        place(sequence.popleft(),
              min(range(inst.num_machines), key=lambda mi: fill_load[mi] / speeds[mi]))

    # Place the postponed F1 core jobs next to a fringe job of their class.
    for k, members in postponed_f1:
        target = next((assignment[j] for j in groups.fringe_jobs_of_class(k)
                       if assignment[j] != UNASSIGNED), None)
        if target is None:
            # No fringe job placed (should not happen): fall back to the
            # machine with the most remaining capacity.
            target = max(range(inst.num_machines), key=lambda mi: capacity[mi] - fill_load[mi])
        for j in members:
            assignment[j] = target
        fill_load[target] += float(sizes[members].sum())

    return Schedule(inst, assignment)
