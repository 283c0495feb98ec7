"""Cross-module integration tests: every paper guarantee on a shared instance pool.

These tests are the executable form of the E-experiments (README §
Testing, ``benchmarks/bench_e*.py``): for each theorem of
the paper, the corresponding algorithm is run against the exact optimum on a
pool of small seeded instances and its proven guarantee is asserted.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    class_aware_list_schedule,
    class_uniform_ptimes_approximation,
    class_uniform_ptimes_instance,
    class_uniform_restrictions_approximation,
    class_uniform_restrictions_instance,
    compare_algorithms,
    identical_instance,
    lpt_uniform_with_setups,
    milp_optimal,
    ptas_uniform,
    randomized_rounding_approximation,
    theoretical_ratio_bound,
    uniform_instance,
    unrelated_instance,
)
from repro.algorithms.lpt import LPT_GUARANTEE


POOL_SEEDS = [0, 1, 2]


class TestAllGuarantees:
    """One test per theorem; each asserts the proven factor on a small pool."""

    def test_lemma_2_1_lpt(self):
        for seed in POOL_SEEDS:
            inst = uniform_instance(15, 3, 4, seed=seed, integral=True)
            opt = milp_optimal(inst, time_limit=30)
            result = lpt_uniform_with_setups(inst)
            assert result.makespan <= LPT_GUARANTEE * opt.makespan * (1 + 1e-9)

    def test_section_2_ptas(self):
        from repro.algorithms.ptas import PTASParams
        params = PTASParams(epsilon=0.25)
        for seed in POOL_SEEDS:
            inst = uniform_instance(15, 3, 4, seed=seed, integral=True)
            opt = milp_optimal(inst, time_limit=30)
            result = ptas_uniform(inst, epsilon=0.25)
            assert result.makespan <= params.total_guarantee * 1.05 * opt.makespan

    def test_theorem_3_3_randomized_rounding(self):
        for seed in POOL_SEEDS:
            inst = unrelated_instance(14, 4, 4, seed=seed)
            opt = milp_optimal(inst, time_limit=30)
            result = randomized_rounding_approximation(inst, seed=seed)
            bound = theoretical_ratio_bound(inst.num_jobs, inst.num_machines)
            assert result.makespan <= bound * opt.makespan * (1 + 1e-6)

    def test_theorem_3_10_two_approximation(self):
        for seed in POOL_SEEDS:
            inst = class_uniform_restrictions_instance(16, 4, 5, seed=seed,
                                                       min_eligible=2, max_eligible=3)
            opt = milp_optimal(inst, time_limit=30)
            result = class_uniform_restrictions_approximation(inst)
            assert result.makespan <= 2.0 * 1.03 * opt.makespan * (1 + 1e-6)

    def test_theorem_3_11_three_approximation(self):
        for seed in POOL_SEEDS:
            inst = class_uniform_ptimes_instance(16, 4, 5, seed=seed)
            opt = milp_optimal(inst, time_limit=30)
            result = class_uniform_ptimes_approximation(inst)
            assert result.makespan <= 3.0 * 1.03 * opt.makespan * (1 + 1e-6)


class TestCrossAlgorithmConsistency:
    def test_all_algorithms_agree_on_trivial_instance(self):
        """With one machine every algorithm must produce the same makespan."""
        inst = uniform_instance(10, 1, 3, seed=4, integral=True)
        expected = (inst.job_sizes.sum()
                    + inst.setup_sizes[inst.classes_present()].sum()) / inst.speeds[0]
        for algo in (lpt_uniform_with_setups, class_aware_list_schedule,
                     lambda i: ptas_uniform(i, epsilon=0.25)):
            assert algo(inst).makespan == pytest.approx(expected)

    def test_zero_setups_reduce_to_classic_makespan(self):
        """With all setups zero the setup-aware algorithms match the setup-free optimum bound."""
        inst = uniform_instance(12, 3, 3, seed=5, integral=True).without_setups()
        opt = milp_optimal(inst, time_limit=30)
        lpt = lpt_uniform_with_setups(inst)
        assert lpt.makespan <= (1 + 1 / np.sqrt(3)) * opt.makespan * (1 + 1e-9)

    def test_compare_algorithms_full_pipeline(self):
        inst = uniform_instance(14, 3, 4, seed=6, integral=True)
        out = compare_algorithms(inst, {
            "lpt": lpt_uniform_with_setups,
            "greedy": class_aware_list_schedule,
            "ptas": lambda i: ptas_uniform(i, epsilon=0.25),
        })
        assert out["_reference"]["kind"] == "optimal"
        for name in ("lpt", "greedy", "ptas"):
            assert out[name]["ratio"] >= 1.0 - 1e-6

    def test_specialised_algorithms_beat_generic_bound_on_their_cases(self):
        """On class-uniform instances the constant-factor algorithms have much stronger
        guarantees than the generic O(log) rounding; their measured makespans are comparable."""
        inst = class_uniform_ptimes_instance(18, 4, 5, seed=7)
        specialised = class_uniform_ptimes_approximation(inst)
        generic = randomized_rounding_approximation(inst, seed=7)
        assert specialised.guarantee < generic.guarantee
        assert specialised.makespan <= 3.0 * generic.makespan

    def test_hardness_instances_hurt_generic_algorithms(self):
        """On the Section 3.2 construction the rounding ratio exceeds what benign
        instances show, illustrating the Ω(log n + log m) hardness."""
        from repro import planted_cover_instance, reduce_to_scheduling
        from repro.core.bounds import lp_lower_bound

        sc, planted = planted_cover_instance(12, 8, 3, seed=8)
        hardness = reduce_to_scheduling(sc, 3, seed=9)
        yes_schedule = hardness.schedule_from_cover(planted)
        # The intended Yes-schedule certifies a small optimum...
        assert yes_schedule.makespan() <= hardness.num_classes
        # ...while the LP lower bound is far below it (integrality gap at work).
        lp = lp_lower_bound(hardness.scheduling)
        assert lp <= yes_schedule.makespan() + 1e-6


class TestRandomisedConsistency:
    @given(seed=st.integers(0, 500))
    @settings(max_examples=6, deadline=None)
    def test_property_every_algorithm_feasible_on_uniform(self, seed):
        inst = uniform_instance(12, 3, 3, seed=seed, integral=True)
        # Theorem 3.10's algorithm needs every eligible machine of a class to
        # see the same workload, so it runs on identical machines.
        same = identical_instance(12, 3, 3, seed=seed, integral=True)
        for algo, instance in ((lpt_uniform_with_setups, inst),
                               (class_aware_list_schedule, inst),
                               (lambda i: ptas_uniform(i, epsilon=0.3), inst),
                               (class_uniform_restrictions_approximation, same)):
            result = algo(instance)
            assert result.schedule.validate() == []
            assert np.isfinite(result.makespan)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=5, deadline=None)
    def test_property_makespan_at_least_lower_bound(self, seed):
        from repro.core.bounds import lower_bound
        inst = unrelated_instance(10, 3, 3, seed=seed)
        lb = lower_bound(inst)
        result = class_aware_list_schedule(inst)
        assert result.makespan >= lb - 1e-6
