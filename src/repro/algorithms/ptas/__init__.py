"""The PTAS for uniformly related machines with setup times (Section 2).

The pipeline follows the paper's roadmap (Section 2.1):

1. :mod:`repro.algorithms.ptas.simplify` — the simplification steps of
   Lemmas 2.2–2.4 (machine removal, minimum sizes, per-class placeholders,
   arithmetic-grid rounding of sizes, geometric rounding of speeds).
2. :mod:`repro.algorithms.ptas.groups` — speed groups, native groups of
   jobs, core groups of classes, core/fringe jobs and machines
   (Figure 1, Remarks 2.5–2.7).
3. :mod:`repro.algorithms.ptas.relaxed` — relaxed schedules and the
   space-condition verifier (the objects the dynamic program searches for).
4. :mod:`repro.algorithms.ptas.search` — finding a relaxed schedule for a
   makespan guess.  The paper uses a dynamic program with
   ``(nmK)^{poly(1/ε)}`` states; we keep its group-by-group structure but
   place the objects of each group with two greedy decreasing-size
   packings, balanced first and tight second.
5. :mod:`repro.algorithms.ptas.convert` — the constructive conversion of a
   relaxed schedule into a regular schedule (proof of Lemma 2.8).
6. :mod:`repro.algorithms.ptas.driver` — the dual-approximation wrapper
   and conversion back to the original instance.

Substitution: step 4 uses two greedy packings in place of the paper's
dynamic program, whose states cannot be enumerated at any useful ``ε``.
The search is sound but not complete: every accepted guess yields a
verified relaxed schedule, so the ``(1+O(ε))·T`` bound of an accepted
guess ``T`` holds, but a guess may be rejected although a relaxed
schedule of that makespan exists, where the DP would have found it.
"""

from repro.algorithms.ptas.params import PTASParams
from repro.algorithms.ptas.simplify import SimplifiedInstance, simplify_instance
from repro.algorithms.ptas.groups import GroupStructure, compute_groups
from repro.algorithms.ptas.relaxed import RelaxedSchedule, relax_schedule
from repro.algorithms.ptas.search import search_relaxed_schedule
from repro.algorithms.ptas.convert import convert_relaxed_to_schedule
from repro.algorithms.ptas.driver import ptas_decision, ptas_uniform

__all__ = [
    "PTASParams",
    "SimplifiedInstance",
    "simplify_instance",
    "GroupStructure",
    "compute_groups",
    "RelaxedSchedule",
    "relax_schedule",
    "search_relaxed_schedule",
    "convert_relaxed_to_schedule",
    "ptas_decision",
    "ptas_uniform",
]
