"""Measuring approximation ratios against exact optima or LP lower bounds."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.algorithms.base import AlgorithmResult
from repro.core.bounds import lower_bound, lp_lower_bound
from repro.core.instance import Instance
from repro.runtime.runner import BatchRunner, BatchTask

__all__ = ["ReferenceBound", "reference_makespan", "reference_makespans", "compare_algorithms"]


@dataclass(frozen=True)
class ReferenceBound:
    """A reference value used as the denominator of measured ratios.

    Attributes
    ----------
    value:
        The reference makespan (a lower bound on, or equal to, ``|Opt|`` —
        except for ``"incumbent"``, see below).
    kind:
        ``"optimal"`` when it is the proven MILP optimum, ``"incumbent"``
        when the MILP hit its time limit and returned a feasible
        gap-optimal schedule (an *upper* bound on ``|Opt|`` whose exact
        value depends on machine load), ``"lp"`` for the LP lower bound,
        ``"combinatorial"`` for the cheap combinatorial bound.  Ratios
        measured against a lower bound over-estimate the true approximation
        ratio, so the comparison with the paper's guarantees stays sound;
        ratios against an incumbent may under-estimate it by at most the
        solver's reported gap.
    """

    value: float
    kind: str


def reference_makespans(runner: BatchRunner, instances: Sequence[Instance], *,
                        exact_limit: int = 600) -> List[ReferenceBound]:
    """The strongest affordable reference for each instance.

    Instances with ``(n + K)·m ≤ exact_limit`` become one batch of default
    ``milp-optimal`` tasks on ``runner``, so their solves are cached and stored
    like any other.  A failed or timed-out solve, or a larger instance, falls
    back to the LP lower bound, then to the combinatorial bound.
    """
    exact = [i for i, inst in enumerate(instances)
             if (inst.num_jobs + inst.num_classes) * inst.num_machines <= exact_limit]
    batch = runner.run_tasks([BatchTask.make("milp-optimal", instances[i]) for i in exact])
    solved = dict(zip(exact, batch.results))
    refs = []
    for i, inst in enumerate(instances):
        opt = solved.get(i)
        if opt is not None and not (opt.meta.get("error") or opt.meta.get("timeout")):
            kind = "incumbent" if opt.meta.get("solve_status") == "incumbent" else "optimal"
            refs.append(ReferenceBound(value=opt.makespan, kind=kind))
        else:
            try:
                refs.append(ReferenceBound(value=lp_lower_bound(inst), kind="lp"))
            except Exception:
                refs.append(ReferenceBound(value=lower_bound(inst), kind="combinatorial"))
    return refs


def reference_makespan(instance: Instance, *, exact_limit: int = 600) -> ReferenceBound:
    """:func:`reference_makespans` for one instance, solved in-process."""
    return reference_makespans(BatchRunner(max_workers=1), [instance],
                               exact_limit=exact_limit)[0]


def compare_algorithms(
    instance: Instance,
    algorithms: Dict[str, Callable[[Instance], AlgorithmResult]],
    *,
    reference: Optional[ReferenceBound] = None,
    exact_limit: int = 600,
) -> Dict[str, Dict[str, float]]:
    """Run every algorithm on ``instance`` and measure ratios to the reference.

    Returns ``{algorithm_name: {"makespan", "ratio", "runtime", "guarantee"}}``
    plus a ``"_reference"`` entry describing the denominator.
    """
    ref = reference if reference is not None else reference_makespan(instance,
                                                                     exact_limit=exact_limit)
    out: Dict[str, Dict[str, float]] = {
        "_reference": {"value": ref.value, "kind": ref.kind},  # type: ignore[dict-item]
    }
    for name, algorithm in algorithms.items():
        result = algorithm(instance)
        out[name] = {
            "makespan": result.makespan,
            "ratio": result.ratio_to(ref.value),
            "runtime": result.runtime_seconds,
            "guarantee": result.guarantee if result.guarantee is not None else float("nan"),
        }
    return out
