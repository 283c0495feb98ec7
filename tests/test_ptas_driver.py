"""End-to-end tests for the PTAS driver (Section 2) and its guarantees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import brute_force_optimal, lpt_uniform_with_setups, milp_optimal
from repro.algorithms.ptas import PTASParams, ptas_decision, ptas_uniform
from repro.generators import identical_instance, uniform_instance


class TestPtasDecision:
    def test_rejects_infeasible_guess(self):
        inst = uniform_instance(14, 3, 4, seed=1, integral=True)
        opt = milp_optimal(inst, time_limit=30)
        assert ptas_decision(inst, 0.05 * opt.makespan) is None

    def test_accepts_optimum(self):
        for seed in range(3):
            inst = uniform_instance(14, 3, 4, seed=seed, integral=True)
            opt = milp_optimal(inst, time_limit=30)
            schedule = ptas_decision(inst, opt.makespan, PTASParams(epsilon=0.25))
            assert schedule is not None
            assert schedule.validate() == []

    def test_accepted_schedule_within_guarantee(self):
        params = PTASParams(epsilon=0.25)
        for seed in range(3):
            inst = uniform_instance(14, 3, 4, seed=seed, integral=True)
            opt = milp_optimal(inst, time_limit=30)
            schedule = ptas_decision(inst, opt.makespan, params)
            assert schedule is not None
            assert schedule.makespan() <= params.total_guarantee * opt.makespan * (1 + 1e-6)

    @given(n=st.integers(1, 8), m=st.integers(1, 3), k=st.integers(1, 3),
           seed=st.integers(0, 10_000), fraction=st.floats(0.3, 1.0),
           eps=st.sampled_from([0.5, 0.25, 0.1]))
    @settings(max_examples=40, deadline=None)
    def test_accepted_guess_below_opt_within_guarantee(self, n, m, k, seed, fraction, eps):
        """Dual approximation: an accepted ``T`` (here ``T <= Opt``) yields makespan <= (1+O(ε))·T.

        Acceptance is not asserted: the greedy relaxed-schedule search is
        sound but not complete, so it may reject even ``T = Opt``.
        """
        inst = uniform_instance(n, m, k, seed=seed, integral=True)
        guess = fraction * brute_force_optimal(inst).makespan
        params = PTASParams(epsilon=eps)
        schedule = ptas_decision(inst, guess, params)
        if schedule is None:
            return
        assert schedule.is_complete
        assert schedule.validate() == []
        assert schedule.makespan() <= params.total_guarantee * guess * (1 + 1e-9)


class TestPtasUniform:
    def test_feasible_on_uniform_and_identical(self, small_uniform, small_identical):
        for inst in (small_uniform, small_identical):
            result = ptas_uniform(inst, epsilon=0.25)
            assert result.schedule.validate() == []
            assert result.makespan > 0

    def test_never_worse_than_lpt(self):
        """The driver keeps the LPT schedule when the PTAS construction is worse."""
        for seed in range(4):
            inst = uniform_instance(16, 4, 4, seed=seed, integral=True)
            lpt = lpt_uniform_with_setups(inst)
            result = ptas_uniform(inst, epsilon=0.2)
            assert result.makespan <= lpt.makespan * (1 + 1e-9)

    def test_quality_improves_as_epsilon_shrinks(self):
        """E2's expected shape: the mean measured ratio is monotone (weakly) in ε."""
        seeds = range(4)
        instances = [uniform_instance(16, 4, 4, seed=s, integral=True, speed_spread=4.0)
                     for s in seeds]
        optima = [milp_optimal(inst, time_limit=30).makespan for inst in instances]
        mean_ratio = {}
        for eps in (0.5, 0.1):
            ratios = [ptas_uniform(inst, epsilon=eps).makespan / opt
                      for inst, opt in zip(instances, optima)]
            mean_ratio[eps] = float(np.mean(ratios))
        assert mean_ratio[0.1] <= mean_ratio[0.5] + 1e-9

    def test_respects_paper_guarantee(self):
        """Makespan within (1+O(ε))·OPT with the paper's constants."""
        params = PTASParams(epsilon=0.25)
        for seed in range(4):
            inst = uniform_instance(14, 3, 4, seed=seed, integral=True)
            opt = milp_optimal(inst, time_limit=30)
            result = ptas_uniform(inst, epsilon=0.25)
            assert result.makespan <= params.total_guarantee * 1.06 * opt.makespan

    def test_metadata_contains_search_diagnostics(self, small_uniform):
        result = ptas_uniform(small_uniform, epsilon=0.3)
        for key in ("epsilon", "accepted_guess", "search_iterations", "lpt_upper_bound"):
            assert key in result.meta

    def test_rejects_unrelated_instance(self, small_unrelated):
        with pytest.raises(ValueError):
            ptas_uniform(small_unrelated, epsilon=0.25)

    def test_single_class_instance(self):
        inst = uniform_instance(12, 3, 1, seed=7, integral=True)
        result = ptas_uniform(inst, epsilon=0.25)
        assert result.schedule.validate() == []

    def test_single_machine_instance(self):
        inst = uniform_instance(8, 1, 3, seed=8, integral=True)
        result = ptas_uniform(inst, epsilon=0.25)
        expected = (inst.job_sizes.sum()
                    + inst.setup_sizes[inst.classes_present()].sum()) / inst.speeds[0]
        assert result.makespan == pytest.approx(expected)

    def test_wide_speed_spread(self):
        inst = uniform_instance(30, 8, 5, seed=9, integral=True, speed_spread=64.0)
        result = ptas_uniform(inst, epsilon=0.25)
        assert result.schedule.validate() == []

    def test_dominant_setup_regime(self):
        inst = uniform_instance(20, 4, 5, seed=10, integral=True, setup_regime="dominant")
        result = ptas_uniform(inst, epsilon=0.25)
        assert result.schedule.validate() == []

    @given(seed=st.integers(0, 3000))
    @settings(max_examples=6, deadline=None)
    def test_property_always_valid_schedule(self, seed):
        inst = uniform_instance(12, 3, 3, seed=seed, integral=True)
        result = ptas_uniform(inst, epsilon=0.3)
        assert result.schedule.validate() == []
