"""The PTAS driver: dual approximation around the Section 2 pipeline.

``ptas_decision`` is the relaxed decision procedure (guess ``T`` → schedule
of makespan ``(1+O(ε))·T`` or rejection); ``ptas_uniform`` wraps it in the
binary search of the dual approximation framework, seeded with the LPT
bound of Lemma 2.1 as the paper suggests.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.algorithms.base import AlgorithmResult
from repro.algorithms.lpt import lpt_uniform_with_setups
from repro.algorithms.ptas.convert import convert_relaxed_to_schedule
from repro.algorithms.ptas.groups import compute_groups
from repro.algorithms.ptas.params import PTASParams
from repro.algorithms.ptas.search import search_relaxed_schedule
from repro.algorithms.ptas.simplify import simplify_instance
from repro.core.bounds import BoundReport, lower_bound
from repro.core.dual import dual_approximation_search
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.runtime.registry import register_algorithm

__all__ = ["ptas_decision", "ptas_uniform"]


def ptas_decision(instance: Instance, guess: float,
                  params: Optional[PTASParams] = None) -> Optional[Schedule]:
    """Run the full PTAS pipeline for one makespan guess.

    Returns a complete schedule for the *original* instance whose makespan
    the analysis bounds by ``(1+O(ε))·guess``, or ``None`` when the guess is
    rejected (no relaxed schedule was found for the simplified instance).
    """
    params = params or PTASParams()
    simplified = simplify_instance(instance, guess, params)
    if simplified is None:
        return None
    groups = compute_groups(simplified.instance, simplified.inflated_guess, params)
    relaxed = search_relaxed_schedule(groups)
    if relaxed is None:
        return None
    simplified_schedule = convert_relaxed_to_schedule(relaxed)
    schedule = simplified.convert_back(simplified_schedule)
    problems = schedule.validate()
    if problems:
        # A decision procedure must never hand back a broken schedule; treat
        # internal inconsistencies as a rejection of the guess.
        return None
    return schedule


@register_algorithm(
    "ptas-uniform",
    environments=("identical", "uniform"),
    tags=("paper",),
)
def ptas_uniform(instance: Instance, *, epsilon: float = 0.25,
                 precision: Optional[float] = None,
                 params: Optional[PTASParams] = None) -> AlgorithmResult:
    """The PTAS for uniformly related machines with setup times (Section 2).

    Parameters
    ----------
    instance:
        A uniform (or identical) machines instance.
    epsilon:
        Accuracy parameter ``ε``; the schedule returned has makespan at most
        ``(1+O(ε))·|Opt|`` (the precise factor is
        ``PTASParams(epsilon).total_guarantee`` times the binary-search
        precision).
    precision:
        Binary-search precision; defaults to ``max(0.01, ε/5)``.
    params:
        Full :class:`PTASParams` override (takes precedence over
        ``epsilon``).
    """
    start = time.perf_counter()
    params = params or PTASParams(epsilon=epsilon)
    # The binary search precision contributes a (1+precision) factor on top
    # of the decision procedure's 1+O(ε); keep it well below ε so the
    # measured quality is dominated by the construction, not the search.
    precision = precision if precision is not None else max(0.01, params.epsilon / 5.0)

    # Seed the dual search with the Lemma 2.1 LPT schedule: its makespan is
    # an upper bound and one 4.74-th of it a lower bound on |Opt|.
    lpt = lpt_uniform_with_setups(instance)
    lpt_guarantee = lpt.guarantee or 4.74
    lb = max(lower_bound(instance), lpt.makespan / lpt_guarantee)
    bounds = BoundReport(lower=lb, upper=lpt.makespan, upper_schedule=lpt.schedule)

    def decision(guess: float) -> Optional[Schedule]:
        return ptas_decision(instance, guess, params)

    result = dual_approximation_search(instance, decision, precision=precision, bounds=bounds)
    # The LPT schedule might still be the best one seen (the decision
    # procedure pays the 1+O(ε) conversion overhead on every guess).
    best_schedule = result.schedule
    if lpt.schedule.makespan() < best_schedule.makespan():
        best_schedule = lpt.schedule
    runtime = time.perf_counter() - start
    return AlgorithmResult.from_schedule(
        "ptas-uniform", best_schedule, runtime=runtime,
        guarantee=params.total_guarantee * (1.0 + precision),
        meta={
            "epsilon": params.epsilon,
            "accepted_guess": result.accepted_guess,
            "rejected_guess": result.rejected_guess,
            "search_iterations": result.iterations,
            "lpt_upper_bound": lpt.makespan,
        },
    )
