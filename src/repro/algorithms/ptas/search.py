"""Finding a relaxed schedule for a makespan guess.

The paper computes relaxed schedules with a dynamic program whose state
space is ``(nmK)^{poly(1/ε)}`` (Section 2.1, "Dynamic Program") — correct
but far outside what can be executed for any useful ``ε``.  This module
keeps the DP's *structure* — groups are processed from slowest to fastest,
within a group the objects considered are exactly the DP's objects (fringe
jobs with that native group, core-job bundles of classes with that core
group), leftover work is pushed up as fractional load — but assigns the
objects within a group with a greedy decreasing-size packing, run twice:

* *balanced* — each object goes to the fitting machine with the lowest
  relative load afterwards (keeps the final makespan low), then
* *tight* — each object goes to the fitting machine with the least
  capacity left afterwards (packs harder when balanced spreads too thin).

The first packing whose relaxed schedule is *valid* (its constraints and
the space condition are verified) is returned; when neither is, the guess
is rejected.  The search is therefore sound — every accepted guess comes
with a verified relaxed schedule — but not complete: unlike the DP it may
reject a guess for which a relaxed schedule exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.algorithms.ptas.groups import GroupStructure
from repro.algorithms.ptas.relaxed import RelaxedSchedule
from repro.core.schedule import UNASSIGNED

__all__ = ["search_relaxed_schedule"]


@dataclass
class _GroupObject:
    """One object the group-level assignment places: a fringe job or a core-class bundle."""

    kind: str                 # "fringe" or "core"
    jobs: List[int]
    total_size: float
    klass: Optional[int] = None
    setup: float = 0.0


def _group_objects(groups: GroupStructure, g: int) -> List[_GroupObject]:
    """The objects native to group ``g``: fringe jobs and core-class bundles."""
    inst = groups.instance
    assert inst.job_sizes is not None and inst.setup_sizes is not None
    objects: List[_GroupObject] = []
    for j in groups.fringe_jobs_with_native_group(g):
        objects.append(_GroupObject(
            kind="fringe", jobs=[j], total_size=float(inst.job_sizes[j])))
    for k in (int(c) for c in inst.classes_present()):
        if int(groups.class_core_group[k]) != g:
            continue
        core = groups.core_jobs_of_class(k)
        if not core:
            continue
        total = float(inst.job_sizes[core].sum())
        objects.append(_GroupObject(
            kind="core", jobs=list(core), total_size=total, klass=k,
            setup=float(inst.setup_sizes[k])))
    objects.sort(key=lambda o: -o.total_size)
    return objects


def _machine_score(mode: str, load_after: float, cap: float) -> float:
    """Score of placing an object on a machine (lower is better).

    ``"balanced"`` minimises the resulting relative load (LPT/worst-fit
    flavour — spreads work and keeps the measured makespan low);
    ``"tight"`` minimises the leftover capacity (best-fit flavour — packs
    harder, accepted as a fallback when the balanced pass cannot satisfy
    the space condition).
    """
    if mode == "balanced":
        return load_after / cap
    return cap - load_after


def _assign_core_bundle(obj: _GroupObject, machines: List[int], loads: List[float],
                        capacity: List[float], setup_done: Set[Tuple[int, int]],
                        assignment: List[int], sizes: List[float], mode: str) -> None:
    """Greedy placement of a core-class bundle.

    Jobs of the bundle are considered largest first; each goes to the
    fitting machine (within the group) with the best score for ``mode``,
    paying the class setup on machines not yet set up.  A job that fits
    nowhere stays fractional.
    """
    k = obj.klass
    assert k is not None
    for j in sorted(obj.jobs, key=lambda jj: -sizes[jj]):
        best_machine, best_score = -1, math.inf
        for i in machines:
            setup_cost = 0.0 if (i, k) in setup_done else obj.setup
            new_load = loads[i] + sizes[j] + setup_cost
            if capacity[i] - new_load < -1e-9:
                continue
            score = _machine_score(mode, new_load, capacity[i])
            if score < best_score:
                best_score = score
                best_machine = i
        if best_machine < 0:
            continue
        setup_cost = 0.0 if (best_machine, k) in setup_done else obj.setup
        loads[best_machine] += sizes[j] + setup_cost
        setup_done.add((best_machine, k))
        assignment[j] = best_machine


def _greedy_group(objects: List[_GroupObject], machines: List[int], loads: List[float],
                  capacity: List[float], setup_done: Set[Tuple[int, int]],
                  assignment: List[int], sizes: List[float], mode: str) -> None:
    """Greedy (decreasing-size) assignment of a group's objects."""
    for obj in objects:
        if obj.kind == "fringe":
            j = obj.jobs[0]
            best_machine, best_score = -1, math.inf
            for i in machines:
                new_load = loads[i] + obj.total_size
                if capacity[i] - new_load < -1e-9:
                    continue
                score = _machine_score(mode, new_load, capacity[i])
                if score < best_score:
                    best_score = score
                    best_machine = i
            if best_machine >= 0:
                loads[best_machine] += obj.total_size
                assignment[j] = best_machine
            # else: stays fractional (assignment remains UNASSIGNED)
        else:
            _assign_core_bundle(obj, machines, loads, capacity, setup_done, assignment, sizes,
                                mode=mode)


def _run_strategy(groups: GroupStructure,
                  placements: List[Tuple[List[int], List[_GroupObject]]],
                  sizes: List[float], capacity: List[float], mode: str) -> RelaxedSchedule:
    """Build one candidate relaxed schedule with the greedy packing ``mode``.

    ``placements`` lists, slowest group first, each group's machines and
    the objects native to it.
    """
    inst = groups.instance
    loads = [0.0] * inst.num_machines
    assignment = [UNASSIGNED] * inst.num_jobs
    setup_done: Set[Tuple[int, int]] = set()
    for machines, objects in placements:
        _greedy_group(objects, machines, loads, capacity, setup_done, assignment, sizes, mode)
    return RelaxedSchedule(groups=groups, assignment=np.array(assignment, dtype=int))


def search_relaxed_schedule(groups: GroupStructure) -> Optional[RelaxedSchedule]:
    """Search for a relaxed schedule of makespan ``groups.guess``.

    Balanced greedy is tried first (the lower final makespan), then tight
    greedy (the harder packing); the first one whose relaxed schedule is
    valid is returned.  Returns ``None`` when both fail; the
    dual-approximation driver then rejects the guess.  A returned schedule
    is always valid, but ``None`` does not prove that no relaxed schedule
    of this makespan exists.
    """
    inst = groups.instance
    assert inst.speeds is not None and inst.job_sizes is not None
    sizes = inst.job_sizes.tolist()
    capacity = (groups.guess * inst.speeds.astype(float)).tolist()

    # Everything native to a group without machines stays fractional.
    placements = []
    for g in sorted({g for pair in groups.machine_groups for g in pair}.union(groups.job_group)):
        objects = _group_objects(groups, g)
        machines = groups.machines_in_group(g)
        if objects and machines:
            placements.append((machines, objects))

    for mode in ("balanced", "tight"):
        relaxed = _run_strategy(groups, placements, sizes, capacity, mode)
        if relaxed.is_valid():
            return relaxed
    return None
