"""Finding a relaxed schedule for a makespan guess.

The paper computes relaxed schedules with a dynamic program whose state
space is ``(nmK)^{poly(1/ε)}`` (Section 2.1, "Dynamic Program") — correct
but far outside what can be executed for any useful ``ε``.  This module
keeps the DP's *structure* — groups are processed from slowest to fastest,
within a group the objects considered are exactly the DP's objects (fringe
jobs with that native group, core-job bundles of classes with that core
group), leftover work is pushed up as fractional load — but assigns the
objects within a group with

* an exact branch-and-bound when the group has few objects and machines
  (``PTASParams.exact_group_search_limit`` / ``exact_machine_limit``), or
* best-fit-decreasing otherwise.

The produced object is always a *valid* relaxed schedule (its constraints
and the space condition are verified); when no relaxed schedule is found
the guess is rejected.  Soundness of the accepted guesses is preserved,
the completeness guarantee of the DP is traded for tractability, and on
the experiment sizes the exact path is the one actually taken.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.algorithms.ptas.groups import GroupStructure
from repro.algorithms.ptas.params import PTASParams
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


def _assign_core_bundle(obj: _GroupObject, machines: List[int], loads: np.ndarray,
                        capacity: np.ndarray, setup_done: Dict[Tuple[int, int], bool],
                        assignment: np.ndarray, sizes: np.ndarray,
                        mode: str = "balanced") -> List[int]:
    """Greedy placement of a core-class bundle; returns the jobs left fractional.

    Jobs of the bundle are considered largest first; each goes to the
    fitting machine (within the group) with the best score for ``mode``,
    paying the class setup on machines not yet set up.
    """
    k = obj.klass
    assert k is not None
    leftovers: List[int] = []
    for j in sorted(obj.jobs, key=lambda jj: -sizes[jj]):
        best_machine, best_score = -1, np.inf
        for i in machines:
            setup_cost = 0.0 if setup_done.get((i, k), False) else obj.setup
            new_load = loads[i] + sizes[j] + setup_cost
            if capacity[i] - new_load < -1e-9:
                continue
            score = _machine_score(mode, new_load, capacity[i])
            if score < best_score:
                best_score = score
                best_machine = i
        if best_machine < 0:
            leftovers.append(j)
            continue
        setup_cost = 0.0 if setup_done.get((best_machine, k), False) else obj.setup
        loads[best_machine] += sizes[j] + setup_cost
        setup_done[(best_machine, k)] = True
        assignment[j] = best_machine
    return leftovers


def _greedy_group(objects: List[_GroupObject], machines: List[int], loads: np.ndarray,
                  capacity: np.ndarray, setup_done: Dict[Tuple[int, int], bool],
                  assignment: np.ndarray, sizes: np.ndarray, mode: str) -> None:
    """Greedy (decreasing-size) assignment of a group's objects."""
    for obj in objects:
        if obj.kind == "fringe":
            j = obj.jobs[0]
            best_machine, best_score = -1, np.inf
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


def _exact_group(objects: List[_GroupObject], machines: List[int], loads: np.ndarray,
                 capacity: np.ndarray, setup_done: Dict[Tuple[int, int], bool],
                 assignment: np.ndarray, sizes: np.ndarray, budget: int) -> bool:
    """Branch-and-bound maximising the total size placed integrally in the group.

    Fringe jobs branch over "machine or fractional"; core bundles are placed
    greedily inside each branch (their jobs are small relative to the group's
    machines by Remark 2.7, so greedy placement is near-lossless).  Returns
    ``True`` when the exact path was used, ``False`` when the budget was
    blown and the caller should fall back to best-fit.
    """
    fringe = [o for o in objects if o.kind == "fringe"]
    cores = [o for o in objects if o.kind == "core"]
    if len(fringe) > budget or len(machines) == 0:
        return False

    best_assignment: Optional[np.ndarray] = None
    best_loads: Optional[np.ndarray] = None
    best_setup: Optional[Dict[Tuple[int, int], bool]] = None
    best_placed = -1.0
    nodes_explored = 0
    node_limit = 200_000

    order = sorted(range(len(fringe)), key=lambda idx: -fringe[idx].total_size)

    def recurse(pos: int, cur_loads: np.ndarray, cur_assignment: np.ndarray,
                placed: float, remaining: float) -> None:
        nonlocal best_placed, best_assignment, best_loads, best_setup, nodes_explored
        nodes_explored += 1
        if nodes_explored > node_limit:
            return
        if placed + remaining <= best_placed + 1e-12:
            return  # cannot beat the incumbent
        if pos == len(order):
            # Place core bundles greedily on top of this fringe placement.
            trial_loads = cur_loads.copy()
            trial_assignment = cur_assignment.copy()
            trial_setup = dict(setup_done)
            core_placed = 0.0
            for obj in cores:
                left = _assign_core_bundle(obj, machines, trial_loads, capacity,
                                           trial_setup, trial_assignment, sizes)
                core_placed += obj.total_size - float(sizes[left].sum()) if left else obj.total_size
            total = placed + core_placed
            if total > best_placed + 1e-12:
                best_placed = total
                best_assignment = trial_assignment
                best_loads = trial_loads
                best_setup = trial_setup
            return
        obj = fringe[order[pos]]
        j = obj.jobs[0]
        # Try each machine (sorted by remaining capacity, tightest fit first).
        options = sorted(machines, key=lambda i: capacity[i] - cur_loads[i])
        tried_loads: Set[float] = set()
        for i in options:
            slack = capacity[i] - (cur_loads[i] + obj.total_size)
            if slack < -1e-9:
                continue
            key = round(cur_loads[i], 9)
            if key in tried_loads:
                continue  # symmetric machines: skip duplicates
            tried_loads.add(key)
            cur_loads[i] += obj.total_size
            cur_assignment[j] = i
            recurse(pos + 1, cur_loads, cur_assignment, placed + obj.total_size,
                    remaining - obj.total_size)
            cur_loads[i] -= obj.total_size
            cur_assignment[j] = UNASSIGNED
        # Or leave it fractional.
        recurse(pos + 1, cur_loads, cur_assignment, placed, remaining - obj.total_size)

    total_fringe = sum(o.total_size for o in fringe)
    recurse(0, loads.copy(), assignment.copy(), 0.0,
            total_fringe + sum(o.total_size for o in cores))
    if best_assignment is None:
        return False
    assignment[:] = best_assignment
    loads[:] = best_loads
    setup_done.clear()
    setup_done.update(best_setup or {})
    return True


def _run_strategy(groups: GroupStructure, params: PTASParams, all_groups: List[int],
                  sizes: np.ndarray, capacity: np.ndarray,
                  strategy: str) -> RelaxedSchedule:
    """Build one candidate relaxed schedule with the given assignment strategy."""
    inst = groups.instance
    loads = np.zeros(inst.num_machines)
    assignment = np.full(inst.num_jobs, UNASSIGNED, dtype=int)
    setup_done: Dict[Tuple[int, int], bool] = {}
    for g in all_groups:
        objects = _group_objects(groups, g)
        if not objects:
            continue
        machines = groups.machines_in_group(g)
        if not machines:
            continue  # everything native to this group must go fractional
        if strategy == "exact":
            used_exact = False
            if len(objects) <= params.exact_group_search_limit and \
                    len(machines) <= params.exact_machine_limit:
                used_exact = _exact_group(objects, machines, loads, capacity, setup_done,
                                          assignment, sizes, params.exact_group_search_limit)
            if not used_exact:
                _greedy_group(objects, machines, loads, capacity, setup_done, assignment,
                              sizes, mode="tight")
        else:
            _greedy_group(objects, machines, loads, capacity, setup_done, assignment,
                          sizes, mode=strategy)
    return RelaxedSchedule(groups=groups, assignment=assignment)


def search_relaxed_schedule(groups: GroupStructure,
                            params: Optional[PTASParams] = None) -> Optional[RelaxedSchedule]:
    """Search for a relaxed schedule of makespan ``groups.guess``.

    Three strategies are attempted in order — balanced greedy (best schedule
    quality), tight greedy (best packing), exact branch-and-bound on the big
    objects of each group (best acceptance power on small groups) — and the
    first strategy producing a *valid* relaxed schedule wins.  Returns
    ``None`` when all fail (the guess is then rejected by the
    dual-approximation driver).
    """
    params = params or groups.params
    inst = groups.instance
    assert inst.speeds is not None and inst.job_sizes is not None
    sizes = inst.job_sizes.astype(float)
    capacity = groups.guess * inst.speeds.astype(float)

    all_groups = sorted(set(
        [g for pair in groups.machine_groups for g in pair]
        + [int(g) for g in groups.job_native_group[groups.job_is_fringe]]
        + [int(groups.class_core_group[inst.job_class(int(j))])
           for j in np.flatnonzero(~groups.job_is_fringe)]
    )) if inst.num_jobs else sorted(set(g for pair in groups.machine_groups for g in pair))

    for strategy in ("balanced", "tight", "exact"):
        relaxed = _run_strategy(groups, params, all_groups, sizes, capacity, strategy)
        if relaxed.is_valid():
            return relaxed
    return None
