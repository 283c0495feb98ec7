"""repro — Scheduling on (un-)related machines with setup times.

A from-scratch Python implementation of every algorithm in

    Klaus Jansen, Marten Maack, Alexander Mäcker,
    "Scheduling on (Un-)Related Machines with Setup Times", IPPS 2019
    (arXiv:1809.10428),

together with the substrates needed to evaluate them: an LP/MILP modelling
layer over SciPy's HiGHS solvers, a SetCover substrate for the hardness
reduction, synthetic instance generators for every machine environment, and
an experiment harness that verifies each proven approximation guarantee.

Quick start
-----------
>>> from repro import uniform_instance, lpt_uniform_with_setups, ptas_uniform
>>> inst = uniform_instance(num_jobs=40, num_machines=4, num_classes=5, seed=0)
>>> lpt = lpt_uniform_with_setups(inst)        # Lemma 2.1 (4.74-approximation)
>>> ptas = ptas_uniform(inst, epsilon=0.1)     # Section 2 PTAS

Package map
-----------
``repro.core``        instances, schedules, bounds, dual approximation
``repro.lp``          LP/MILP matrix container over SciPy's HiGHS (substrate)
``repro.setcover``    SetCover substrate + Section 3.2 hardness reduction
``repro.generators``  synthetic instance generators and experiment suites
``repro.algorithms``  every algorithm of the paper + baselines + exact solvers
``repro.runtime``     algorithm registry + parallel batch execution engine
``repro.store``       persistent result store + fitted runtime cost model
``repro.analysis``    ratio measurement, experiment registry, result tables
``repro.api``         the public front door: declarative scenario specs +
                      the Session facade + the ``python -m repro run`` CLI
"""

from repro._version import __version__

# Core data model.
from repro.core import (
    Instance,
    MachineEnvironment,
    Schedule,
    dual_approximation_search,
    greedy_upper_bound,
    lower_bound,
    lp_lower_bound,
    makespan_bounds,
)

# Generators.
from repro.generators import (
    class_uniform_ptimes_instance,
    class_uniform_restrictions_instance,
    identical_instance,
    restricted_instance,
    uniform_instance,
    unrelated_instance,
)

# Algorithms (paper results + baselines + exact solvers).
from repro.algorithms import (
    AlgorithmResult,
    best_machine_schedule,
    brute_force_optimal,
    class_aware_list_schedule,
    class_oblivious_list_schedule,
    lpt_uniform_with_setups,
    lpt_without_setups,
    milp_optimal,
)
from repro.algorithms.ptas import PTASParams, ptas_uniform
from repro.algorithms.restricted import (
    class_uniform_ptimes_approximation,
    class_uniform_restrictions_approximation,
)
from repro.algorithms.unrelated import (
    randomized_rounding_approximation,
    theoretical_ratio_bound,
)

# SetCover substrate and hardness reduction.
from repro.setcover import (
    SetCoverInstance,
    greedy_set_cover,
    integrality_gap_instance,
    planted_cover_instance,
    reduce_to_scheduling,
)

# Runtime: algorithm registry + batch execution engine.
from repro.runtime import (
    AlgorithmSpec,
    BatchRunner,
    algorithm_names,
    algorithms_for,
    get_algorithm,
    register_algorithm,
)

# Persistent result store + cost model.
from repro.store import CostModel, ResultStore

# Analysis / experiments.
from repro.analysis import EXPERIMENTS, ResultTable, compare_algorithms, run_experiment

# Public front door: declarative scenarios + the Session facade.
from repro.api import (
    AlgorithmSweep,
    ScenarioSpec,
    Session,
    SessionConfig,
    load_scenario,
)

__all__ = [
    "__version__",
    # core
    "Instance",
    "MachineEnvironment",
    "Schedule",
    "lower_bound",
    "lp_lower_bound",
    "greedy_upper_bound",
    "makespan_bounds",
    "dual_approximation_search",
    # generators
    "uniform_instance",
    "identical_instance",
    "unrelated_instance",
    "restricted_instance",
    "class_uniform_restrictions_instance",
    "class_uniform_ptimes_instance",
    # algorithms
    "AlgorithmResult",
    "lpt_uniform_with_setups",
    "lpt_without_setups",
    "class_aware_list_schedule",
    "class_oblivious_list_schedule",
    "best_machine_schedule",
    "milp_optimal",
    "brute_force_optimal",
    "ptas_uniform",
    "PTASParams",
    "randomized_rounding_approximation",
    "theoretical_ratio_bound",
    "class_uniform_restrictions_approximation",
    "class_uniform_ptimes_approximation",
    # setcover
    "SetCoverInstance",
    "greedy_set_cover",
    "planted_cover_instance",
    "integrality_gap_instance",
    "reduce_to_scheduling",
    # runtime
    "AlgorithmSpec",
    "BatchRunner",
    "register_algorithm",
    "get_algorithm",
    "algorithm_names",
    "algorithms_for",
    # store
    "ResultStore",
    "CostModel",
    # analysis
    "ResultTable",
    "compare_algorithms",
    "run_experiment",
    "EXPERIMENTS",
    # api (the public front door)
    "Session",
    "SessionConfig",
    "ScenarioSpec",
    "AlgorithmSweep",
    "load_scenario",
]
