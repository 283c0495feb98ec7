"""Experiment harness: ratio measurement, parameter sweeps and table rendering.

The benchmarks in ``benchmarks/`` call into this package so that the rows
they print are produced by library code (testable, reusable from the
examples) rather than ad-hoc scripting.

* :mod:`repro.analysis.ratios` — run a set of algorithms on one instance and
  measure makespans against the best available reference (exact MILP optimum
  on small instances, LP lower bound otherwise).
* :mod:`repro.analysis.experiments` — the experiment registry
  (``EXPERIMENTS``): one function per experiment id (E1–E9 check the
  paper's guarantees, F1 regenerates Figure 1) producing a
  :class:`repro.analysis.tables.ResultTable`; each E-experiment is a thin
  :class:`~repro.api.ScenarioSpec`-plus-post-processing wrapper over the
  :class:`~repro.api.Session` facade.  The F2–F5 benchmarks measure the
  serving stack, not the paper, and live in
  ``benchmarks/bench_f{2,3,4,5}_*.py``.
* :mod:`repro.analysis.tables` — plain-text/markdown/CSV/JSON table
  rendering used by the benchmark harness (``benchmarks/``) and the
  ``python -m repro run --export`` CLI.
"""

from repro.analysis.ratios import (ReferenceBound, compare_algorithms, reference_makespan,
                                   reference_makespans)
from repro.analysis.tables import ResultTable
from repro.analysis.experiments import (
    EXPERIMENTS,
    run_experiment,
    experiment_e1_lpt,
    experiment_e2_ptas,
    experiment_e3_randomized_rounding,
    experiment_e4_hardness_gap,
    experiment_e5_class_uniform_restrictions,
    experiment_e6_class_uniform_ptimes,
    experiment_e7_baselines,
    experiment_e8_dual_search,
    experiment_e9_scalability,
    experiment_f1_speed_groups,
)

__all__ = [
    "ReferenceBound",
    "reference_makespan",
    "reference_makespans",
    "compare_algorithms",
    "ResultTable",
    "EXPERIMENTS",
    "run_experiment",
    "experiment_e1_lpt",
    "experiment_e2_ptas",
    "experiment_e3_randomized_rounding",
    "experiment_e4_hardness_gap",
    "experiment_e5_class_uniform_restrictions",
    "experiment_e6_class_uniform_ptimes",
    "experiment_e7_baselines",
    "experiment_e8_dual_search",
    "experiment_e9_scalability",
    "experiment_f1_speed_groups",
]
