"""Speed groups, native/core groups and the core/fringe classification.

Definitions (Section 2.1, "Preliminaries", and Figure 1), all relative to a
makespan guess ``T`` and the accuracy parameters ``δ = ε²``, ``γ = ε³``:

* **speed groups** — for ``g ∈ Z``, group ``g`` is the speed interval
  ``[v̌_g, v̂_g)`` with ``v̌_g = v_min/γ^{g-1}`` and ``v̂_g = v_min/γ^{g+1}``;
  consecutive groups overlap so that every speed lies in exactly two groups;
* **core / fringe jobs** of class ``k`` — jobs with size in
  ``[ε·s_k, s_k/δ)`` are core, larger ones fringe;
* **core / fringe machines** of class ``k`` — machines with
  ``s_k ≤ T·v_i < s_k/γ`` are core, faster ones fringe (slower machines
  cannot process the class at all within the guess);
* **native group** of a job ``j`` — the smallest group ``g`` with
  ``p_j ≥ ε·v̌_g·T`` and ``p_j < v̂_g·T`` (all speeds for which ``j`` is big
  lie in it);
* **core group** of a class ``k`` — the smallest group ``g`` with
  ``s_k ≥ v̌_g·T`` and ``s_k < v̂_g·T`` (all possible core machine speeds of
  ``k`` lie in it).

The structure object below also powers the Figure 1 reproduction (bench
F1): it reports, per class, the interval of speeds of its core machines and
the interval of speeds for which its fringe jobs are big.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.ptas.params import PTASParams
from repro.core.instance import Instance

__all__ = ["GroupStructure", "compute_groups"]


@dataclass
class GroupStructure:
    """The full group/core/fringe classification of a simplified instance.

    All arrays are indexed by the simplified instance's job/machine/class
    indices.  ``machine_groups[i]`` is the pair of (consecutive) groups the
    machine belongs to.
    """

    instance: Instance
    guess: float
    params: PTASParams
    v_min: float
    machine_groups: List[Tuple[int, int]]
    job_native_group: np.ndarray
    class_core_group: np.ndarray
    job_is_fringe: np.ndarray
    min_group: int
    max_group: int
    #: Per job, the group whose machines may hold it integrally: its native
    #: group if it is a fringe job, its class's core group otherwise.
    job_group: List[int] = field(init=False, repr=False, compare=False)
    _core_jobs: List[List[int]] = field(init=False, repr=False, compare=False)
    _fringe_jobs: List[List[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        inst = self.instance
        fringe = self.job_is_fringe.tolist()
        native = self.job_native_group.tolist()
        core_group = self.class_core_group.tolist()
        classes = inst.job_classes.tolist()
        self.job_group = [native[j] if fringe[j] else core_group[classes[j]]
                          for j in range(inst.num_jobs)]
        self._core_jobs, self._fringe_jobs = [], []
        for k in range(inst.num_classes):
            members = inst.jobs_of_class(k).tolist()
            self._core_jobs.append([j for j in members if not fringe[j]])
            self._fringe_jobs.append([j for j in members if fringe[j]])

    # ------------------------------------------------------------------
    def group_bounds(self, g: int) -> Tuple[float, float]:
        """``(v̌_g, v̂_g)`` — the speed interval of group ``g``."""
        gamma = self.params.gamma
        return self.v_min * gamma ** (1 - g), self.v_min * gamma ** (-1 - g)

    def machines_in_group(self, g: int) -> List[int]:
        """Machines whose speed lies in group ``g``."""
        return [i for i, (lo, hi) in enumerate(self.machine_groups) if g in (lo, hi)]

    def machines_only_in_group(self, g: int) -> List[int]:
        """``M_g \\ M_{g+1}``: machines for which ``g`` is the faster of their two groups."""
        return [i for i, (lo, hi) in enumerate(self.machine_groups) if hi == g]

    def fringe_jobs_with_native_group(self, g: int) -> List[int]:
        """``J̃_g``: fringe jobs whose native group is ``g``."""
        return [int(j) for j in np.flatnonzero(
            self.job_is_fringe & (self.job_native_group == g))]

    def core_jobs_of_class(self, k: int) -> List[int]:
        """``J̄_k``: core jobs of class ``k``."""
        return list(self._core_jobs[k])

    def fringe_jobs_of_class(self, k: int) -> List[int]:
        """``J̃_k``: fringe jobs of class ``k``."""
        return list(self._fringe_jobs[k])

    def groups_with_machines(self) -> List[int]:
        """Sorted list of groups that contain at least one machine."""
        present = sorted({g for pair in self.machine_groups for g in pair})
        return present


def compute_groups(instance: Instance, guess: float,
                   params: Optional[PTASParams] = None) -> GroupStructure:
    """Compute the full group structure of a (simplified) uniform instance."""
    params = params or PTASParams()
    inst = instance
    if not inst.is_uniform_like() or inst.speeds is None or inst.job_sizes is None \
            or inst.setup_sizes is None:
        raise ValueError("compute_groups requires a uniform (or identical) instance")
    if guess <= 0:
        raise ValueError("guess must be positive")
    eps, gamma = params.epsilon, params.gamma
    speeds = inst.speeds.astype(float)
    v_min = float(speeds.min())

    def group_low(g: int) -> float:
        return v_min * gamma ** (1 - g)

    def group_high(g: int) -> float:
        return v_min * gamma ** (-1 - g)

    # Machine groups: speed v belongs to groups g with v̌_g <= v < v̂_g.  With
    # x = log_{1/γ}(v / v_min) ≥ 0, membership means g - 1 <= x < g + 1, i.e.
    # g ∈ {floor(x), floor(x) + 1} (one value collapses at the boundary).
    machine_groups: List[Tuple[int, int]] = []
    log_inv_gamma = math.log(1.0 / gamma)
    for v in speeds.tolist():
        x = math.log(max(v / v_min, 1.0)) / log_inv_gamma
        candidates = sorted({
            g for g in (math.floor(x) - 1, math.floor(x), math.floor(x) + 1, math.floor(x) + 2)
            if group_low(g) <= v * (1 + 1e-12) and v < group_high(g)
        })
        if not candidates:
            raise RuntimeError(f"speed {v} does not fall into any group (numerical issue)")
        # Every speed belongs to exactly two consecutive groups; when the
        # numerical test admits more (boundary effects) keep the two fastest.
        high = candidates[-1]
        low = high - 1 if len(candidates) > 1 else high
        machine_groups.append((low, high))

    # Native group of a job j: the smallest group containing *all* speeds for
    # which p_j is big.  p_j is big for speeds in [p_j/T, p_j/(εT)], so the
    # containment conditions are p_j >= v̌_g·T and p_j/(εT) < v̂_g, i.e.
    # p_j < ε·v̂_g·T.  Sizes repeat (placeholders, integral sizes): each
    # distinct one is placed once.
    @functools.lru_cache(maxsize=None)
    def native_group(p: float) -> int:
        x = math.log(max(p / (eps * v_min * guess), 1e-300)) / log_inv_gamma
        g = math.floor(x) - 2
        for _ in range(8):
            if p >= group_low(g) * guess - 1e-12 and p < eps * group_high(g) * guess:
                return g
            g += 1
        raise RuntimeError(f"could not determine native group of size {p}")

    # Core group of a class k: the smallest group containing all possible
    # core-machine speeds [s_k/T, s_k/(γT)), i.e. s_k >= v̌_g·T and
    # s_k/(γT) <= v̂_g ⇔ s_k < v̌_{g+1}·T.  Equivalently the unique g with
    # s_k ∈ [v̌_g·T, v̌_{g+1}·T).
    def core_group(s: float) -> int:
        x = math.log(max(s / (v_min * guess), 1e-300)) / log_inv_gamma
        g = math.floor(x) - 1
        for _ in range(8):
            if s >= group_low(g) * guess - 1e-12 and s < group_low(g + 1) * guess:
                return g
            g += 1
        raise RuntimeError(f"could not determine core group of setup size {s}")

    job_native = np.array([native_group(p) for p in inst.job_sizes.tolist()], dtype=int) \
        if inst.num_jobs else np.zeros(0, dtype=int)
    class_core = np.array([core_group(s) for s in inst.setup_sizes.tolist()], dtype=int) \
        if inst.num_classes else np.zeros(0, dtype=int)

    # Core/fringe jobs: fringe iff p >= s_k / δ.
    delta = params.delta
    setup_of_job = inst.setup_sizes[inst.job_classes] if inst.num_jobs else np.zeros(0)
    job_is_fringe = (inst.job_sizes >= setup_of_job / delta - 1e-12) if inst.num_jobs \
        else np.zeros(0, dtype=bool)

    groups_present = [g for pair in machine_groups for g in pair]
    min_group = min(groups_present) if groups_present else 0
    max_group = max(groups_present) if groups_present else 0
    return GroupStructure(
        instance=inst,
        guess=float(guess),
        params=params,
        v_min=v_min,
        machine_groups=machine_groups,
        job_native_group=job_native,
        class_core_group=class_core,
        job_is_fringe=np.asarray(job_is_fringe, dtype=bool),
        min_group=min_group,
        max_group=max_group,
    )
