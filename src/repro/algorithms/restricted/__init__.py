"""Constant-factor approximations for the special cases of Section 3.3.

* :mod:`repro.algorithms.restricted.lp_relaxed_ra` — the class-level linear
  program LP-RelaxedRA (constraints (11)–(14), or (16) for the
  processing-time-uniform variant), and :class:`RelaxedRAFlow`, which
  decides (11)–(14) under class-uniform restrictions as a transportation
  max flow.
* :mod:`repro.algorithms.restricted.pseudoforest` — the support-graph
  rounding of Correa et al. [5] restated in the paper: cycle breaking,
  rooted-tree orientation, and the ``i_k⁺ / i_k⁻`` machine selection with
  the two properties of Lemma 3.8.
* :mod:`repro.algorithms.restricted.class_uniform_restrictions` — the
  2-approximation of Theorem 3.10 (restricted assignment, all jobs of a
  class share one eligible-machine set).
* :mod:`repro.algorithms.restricted.class_uniform_ptimes` — the
  3-approximation of Theorem 3.11 (unrelated machines, all jobs of a class
  share one processing time per machine).
"""

from repro.algorithms.restricted.lp_relaxed_ra import (
    RelaxedRAFlow,
    RelaxedRAResult,
    solve_lp_relaxed_ra,
)
from repro.algorithms.restricted.pseudoforest import (
    SupportRounding,
    round_support_graph,
    support_graph,
    verify_pseudoforest,
)
from repro.algorithms.restricted.class_uniform_restrictions import (
    class_uniform_restrictions_approximation,
    class_uniform_restrictions_decision,
)
from repro.algorithms.restricted.class_uniform_ptimes import (
    class_uniform_ptimes_approximation,
    class_uniform_ptimes_decision,
)

__all__ = [
    "RelaxedRAFlow",
    "RelaxedRAResult",
    "solve_lp_relaxed_ra",
    "SupportRounding",
    "support_graph",
    "round_support_graph",
    "verify_pseudoforest",
    "class_uniform_restrictions_decision",
    "class_uniform_restrictions_approximation",
    "class_uniform_ptimes_decision",
    "class_uniform_ptimes_approximation",
]
