"""Simplification steps of the PTAS (Lemmas 2.2–2.4).

Starting from a uniform instance ``I`` and a makespan guess ``T``:

* **I₁** (Lemma 2.2): remove machines with speed below ``ε·v_max/m`` and
  lift every job/setup size below ``ε·v_min·T/(n+K)`` to that value.
* **I₂** (Lemma 2.3): for every class ``k``, replace the jobs of size at
  most ``ε·s_k`` by ``⌈(Σ p_j)/(ε·s_k)⌉`` placeholder jobs of size
  ``ε·s_k``.
* **I₃** (Lemma 2.4): round job and setup sizes up onto the Gálvez
  arithmetic grid (factor ``1+ε``) and round machine speeds down onto a
  geometric grid (factor ``1+ε``).

If ``I`` admits a schedule of makespan ``T`` then ``I₃`` admits one of
makespan ``(1+ε)^5·T``; conversely any schedule for ``I₃`` maps back to a
schedule for ``I`` of makespan at most ``(1+ε)`` times larger
(:func:`SimplifiedInstance.convert_back`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.ptas.params import PTASParams
from repro.core.instance import Instance, MachineEnvironment
from repro.core.schedule import Schedule, UNASSIGNED
from repro.utils.rounding import arithmetic_grid_round, geometric_round

__all__ = ["SimplifiedInstance", "simplify_instance"]


@dataclass
class SimplifiedInstance:
    """The simplified instance ``I₃`` together with the data needed to map back.

    Attributes
    ----------
    original:
        The instance the simplification started from.
    instance:
        The simplified uniform instance (placeholders included).
    guess:
        The makespan guess ``T`` the simplification was performed for
        (sizes are *not* rescaled; ``v_min·T = 1`` normalisation is not
        applied because it is only needed for the DP's state-counting
        argument, not for correctness).
    inflated_guess:
        ``(1+ε)^5·T`` — the guess to use on the simplified instance.
    kept_machines:
        Original indices of the machines that survived step I₁ (position
        ``i`` is the original index of simplified machine ``i``).
    job_map:
        For each simplified job index, the original job index, or ``-1``
        for a placeholder.
    placeholder_jobs:
        ``{class: [simplified placeholder job indices]}``.
    replaced_jobs:
        ``{class: [original job indices that were replaced]}``.
    params:
        The :class:`PTASParams` used.
    """

    original: Instance
    instance: Instance
    guess: float
    inflated_guess: float
    kept_machines: np.ndarray
    job_map: np.ndarray
    placeholder_jobs: Dict[int, List[int]] = field(default_factory=dict)
    replaced_jobs: Dict[int, List[int]] = field(default_factory=dict)
    params: PTASParams = field(default_factory=PTASParams)

    # ------------------------------------------------------------------
    def convert_back(self, schedule: Schedule) -> Schedule:
        """Map a schedule for the simplified instance back to the original.

        Real jobs keep their machine (translated to the original index);
        the small jobs replaced by placeholders of class ``k`` are spread
        over the machines holding those placeholders, each machine
        receiving small jobs up to the total placeholder size it held
        (over-packing by at most one job, as in Lemma 2.3).  The makespan
        increases by at most a factor ``1+ε`` relative to the simplified
        schedule (and typically decreases, because original sizes are
        smaller than rounded ones and original speeds are faster).
        """
        original = self.original
        assert original.job_sizes is not None
        sizes = original.job_sizes.tolist()
        kept = self.kept_machines.tolist()
        machine_of = schedule.assignment.tolist()
        assignment = [UNASSIGNED] * original.num_jobs
        eps = self.params.epsilon

        for machine, orig_j in zip(machine_of, self.job_map.tolist()):
            if machine != UNASSIGNED and orig_j >= 0:
                assignment[orig_j] = kept[machine]

        # Distribute the replaced small jobs class by class.
        assert original.setup_sizes is not None
        for k, originals in self.replaced_jobs.items():
            placeholders = self.placeholder_jobs.get(k, [])
            capacity_per_machine: Dict[int, float] = {}
            order: List[int] = []
            unit = eps * float(original.setup_sizes[k])
            for p_idx in placeholders:
                machine = machine_of[p_idx]
                if machine == UNASSIGNED:
                    continue
                orig_machine = kept[machine]
                if orig_machine not in capacity_per_machine:
                    capacity_per_machine[orig_machine] = 0.0
                    order.append(orig_machine)
                capacity_per_machine[orig_machine] += unit
            if not order:
                # No placeholder got scheduled (should not happen for a
                # complete schedule); fall back to the fastest machine.
                assert original.speeds is not None
                order = [int(np.argmax(original.speeds))]
                capacity_per_machine[order[0]] = float("inf")
            queue = sorted(originals, key=lambda j: -sizes[j])
            cursor = 0
            for machine in order:
                remaining = capacity_per_machine[machine]
                while cursor < len(queue) and remaining > 1e-12:
                    assignment[queue[cursor]] = machine
                    remaining -= sizes[queue[cursor]]
                    cursor += 1
            for j in queue[cursor:]:
                assignment[j] = order[-1]
        return Schedule(original, assignment)


def simplify_instance(instance: Instance, guess: float,
                      params: Optional[PTASParams] = None) -> Optional[SimplifiedInstance]:
    """Apply the simplification steps I₁–I₃ for makespan guess ``guess``.

    Returns ``None`` when the guess is trivially infeasible (some job or
    setup size alone exceeds what the fastest machine can do in time
    ``(1+ε)^5·guess``), which lets callers reject early.
    """
    params = params or PTASParams()
    eps = params.epsilon
    inst = instance
    if not inst.is_uniform_like() or inst.job_sizes is None or inst.speeds is None \
            or inst.setup_sizes is None:
        raise ValueError("simplify_instance requires a uniform (or identical) instance")
    if guess <= 0:
        return None

    speeds = inst.speeds.astype(float)
    job_sizes = inst.job_sizes.astype(float)
    setup_sizes = inst.setup_sizes.astype(float)
    n, num_classes = inst.num_jobs, inst.num_classes

    # ---- Step I1: drop slow machines, lift tiny sizes. -------------------
    v_max = float(speeds.max())
    keep_mask = speeds >= eps * v_max / inst.num_machines
    kept_machines = np.flatnonzero(keep_mask)
    kept_speeds = speeds[kept_machines]
    v_min = float(kept_speeds.min())

    floor_size = eps * v_min * guess / max(1, n + num_classes)
    job_sizes = np.maximum(job_sizes, floor_size)
    setup_sizes = np.maximum(setup_sizes, floor_size)

    # Early rejection: a single job (plus its setup) must fit on the fastest
    # machine within the inflated guess.
    inflated = params.simplification_inflation * guess
    per_job = job_sizes + setup_sizes[inst.job_classes]
    if np.any(per_job > inflated * float(kept_speeds.max()) * (1.0 + 1e-9)):
        return None

    # ---- Step I2: per-class placeholders for tiny jobs. ------------------
    sizes = job_sizes.tolist()
    setups = setup_sizes.tolist()
    classes = inst.job_classes.tolist()
    new_sizes: List[float] = []
    new_classes: List[int] = []
    job_map: List[int] = []
    placeholder_jobs: Dict[int, List[int]] = {}
    replaced_jobs: Dict[int, List[int]] = {}
    for j in range(n):
        k = classes[j]
        if sizes[j] > eps * setups[k]:
            job_map.append(j)
            new_sizes.append(sizes[j])
            new_classes.append(k)
    for k in range(num_classes):
        small = [j for j in inst.jobs_of_class(k).tolist() if sizes[j] <= eps * setups[k]]
        if not small:
            continue
        replaced_jobs[k] = small
        total = float(job_sizes[small].sum())
        unit = eps * setups[k]
        count = max(1, int(math.ceil(total / unit - 1e-12)))
        placeholder_jobs[k] = list(range(len(new_sizes), len(new_sizes) + count))
        job_map.extend([-1] * count)
        new_sizes.extend([unit] * count)
        new_classes.extend([k] * count)

    # ---- Step I3: rounding (sizes repeat, so each distinct one once). -----
    grid_round = functools.lru_cache(maxsize=None)(
        functools.partial(arithmetic_grid_round, epsilon=eps))
    rounded_sizes = np.array([grid_round(s) for s in new_sizes], dtype=float) \
        if new_sizes else np.zeros(0)
    rounded_setups = np.array([grid_round(s) for s in setups], dtype=float)
    rounded_speeds = np.array([geometric_round(v, eps, v_min) for v in kept_speeds], dtype=float)

    simplified = Instance.uniform(
        rounded_sizes, rounded_setups, np.asarray(new_classes, dtype=int), rounded_speeds,
        name=f"{inst.name}-simplified",
        meta={"simplified_from": inst.name, "epsilon": eps, "guess": float(guess)},
    )
    return SimplifiedInstance(
        original=inst,
        instance=simplified,
        guess=float(guess),
        inflated_guess=float(inflated),
        kept_machines=kept_machines,
        job_map=np.asarray(job_map, dtype=int),
        placeholder_jobs=placeholder_jobs,
        replaced_jobs=replaced_jobs,
        params=params,
    )
