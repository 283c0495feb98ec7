"""Tests for the Section 3.1 LP relaxation and randomized rounding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import milp_optimal
from repro.algorithms.unrelated import (
    randomized_rounding_approximation,
    randomized_rounding_decision,
    solve_ilp_um_relaxation,
    theoretical_ratio_bound,
)
from repro.algorithms.unrelated.lp_rounding import RoundingStats
from repro.core.bounds import lp_lower_bound
from repro.generators import unrelated_instance


class TestLPRelaxation:
    def test_feasible_at_optimum(self):
        inst = unrelated_instance(12, 3, 3, seed=1)
        opt = milp_optimal(inst, time_limit=30)
        relax = solve_ilp_um_relaxation(inst, opt.makespan)
        assert relax.feasible
        assert relax.fractional_makespan <= opt.makespan + 1e-6

    def test_infeasible_below_lp_bound(self):
        inst = unrelated_instance(12, 3, 3, seed=2)
        lb = lp_lower_bound(inst)
        relax = solve_ilp_um_relaxation(inst, 0.5 * lb)
        assert not relax.feasible

    def test_assignment_constraint_satisfied(self):
        inst = unrelated_instance(10, 3, 3, seed=3)
        opt = milp_optimal(inst, time_limit=30)
        relax = solve_ilp_um_relaxation(inst, opt.makespan * 1.1)
        sums = relax.x.sum(axis=0)
        assert np.allclose(sums, 1.0, atol=1e-6)

    def test_setup_coupling_satisfied(self):
        inst = unrelated_instance(10, 3, 3, seed=4)
        opt = milp_optimal(inst, time_limit=30)
        relax = solve_ilp_um_relaxation(inst, opt.makespan * 1.1)
        for i in range(inst.num_machines):
            for j in range(inst.num_jobs):
                k = inst.job_class(j)
                assert relax.x[i, j] <= relax.y[i, k] + 1e-6

    def test_constraint5_filters_large_jobs(self):
        inst = unrelated_instance(8, 3, 2, seed=5, processing_range=(10.0, 100.0))
        guess = 15.0
        relax = solve_ilp_um_relaxation(inst, guess)
        if relax.feasible:
            filtered = inst.processing > guess
            assert np.all(relax.x[filtered] == 0.0)

    def test_loads_within_guess_when_feasible(self):
        inst = unrelated_instance(12, 4, 3, seed=6)
        opt = milp_optimal(inst, time_limit=30)
        relax = solve_ilp_um_relaxation(inst, opt.makespan)
        loads = (relax.x * np.where(np.isfinite(inst.processing), inst.processing, 0.0)).sum(axis=1)
        loads += (relax.y * np.where(np.isfinite(inst.setups), inst.setups, 0.0)).sum(axis=1)
        assert np.all(loads <= opt.makespan * (1 + 1e-6) + 1e-6)

    def test_job_distribution_accessor(self):
        inst = unrelated_instance(6, 3, 2, seed=7)
        opt = milp_optimal(inst, time_limit=20)
        relax = solve_ilp_um_relaxation(inst, opt.makespan)
        dist = relax.job_distribution(0)
        assert dist.shape == (3,)
        assert dist.sum() == pytest.approx(1.0, abs=1e-6)


class TestTheoreticalBound:
    def test_grows_logarithmically(self):
        small = theoretical_ratio_bound(10, 10)
        large = theoretical_ratio_bound(1000, 1000)
        assert large > small
        assert large < small * 10  # logarithmic, not linear

    def test_matches_formula(self):
        import math
        n, m, c = 16, 8, 2.0
        delta = 3.0 * (math.log2(n + m) / (c * math.log2(n)) + 1.0)
        assert theoretical_ratio_bound(n, m, c) == pytest.approx((1 + delta) * c * math.log2(n))

    def test_handles_tiny_inputs(self):
        assert np.isfinite(theoretical_ratio_bound(1, 1))


class TestRandomizedRoundingDecision:
    def test_rejects_infeasible_guess(self):
        inst = unrelated_instance(10, 3, 3, seed=8)
        lb = lp_lower_bound(inst)
        assert randomized_rounding_decision(inst, 0.4 * lb, seed=0) is None

    def test_accepts_feasible_guess_with_complete_schedule(self):
        inst = unrelated_instance(10, 3, 3, seed=9)
        opt = milp_optimal(inst, time_limit=30)
        schedule = randomized_rounding_decision(inst, opt.makespan, seed=1)
        assert schedule is not None
        assert schedule.is_complete
        assert schedule.validate() == []

    def test_stats_recorded(self):
        inst = unrelated_instance(10, 3, 3, seed=10)
        opt = milp_optimal(inst, time_limit=30)
        stats = []
        schedule = randomized_rounding_decision(inst, opt.makespan, seed=2, stats_out=stats)
        assert schedule is not None
        assert len(stats) == 1
        assert isinstance(stats[0], RoundingStats)
        assert stats[0].iterations_used >= 1
        assert stats[0].makespan == pytest.approx(schedule.makespan())

    def test_reproducible_with_same_seed(self):
        inst = unrelated_instance(10, 3, 3, seed=11)
        opt = milp_optimal(inst, time_limit=30)
        a = randomized_rounding_decision(inst, opt.makespan, seed=5)
        b = randomized_rounding_decision(inst, opt.makespan, seed=5)
        assert np.array_equal(a.assignment, b.assignment)

    def test_different_seeds_can_differ(self):
        inst = unrelated_instance(20, 4, 4, seed=12)
        opt = milp_optimal(inst, time_limit=30)
        schedules = {tuple(randomized_rounding_decision(inst, opt.makespan, seed=s).assignment)
                     for s in range(5)}
        assert len(schedules) >= 2


class TestRandomizedRoundingApproximation:
    def test_end_to_end_feasible(self, small_unrelated):
        result = randomized_rounding_approximation(small_unrelated, seed=3)
        assert result.schedule.validate() == []
        assert result.guarantee is not None

    def test_within_theoretical_bound(self):
        """The measured ratio respects the O(log n + log m) bound of Theorem 3.3."""
        for seed in range(4):
            inst = unrelated_instance(14, 4, 4, seed=seed)
            opt = milp_optimal(inst, time_limit=30)
            result = randomized_rounding_approximation(inst, seed=seed)
            bound = theoretical_ratio_bound(inst.num_jobs, inst.num_machines)
            assert result.makespan <= bound * opt.makespan * (1 + 1e-6)

    def test_typically_much_better_than_bound(self):
        inst = unrelated_instance(20, 4, 5, seed=13)
        opt = milp_optimal(inst, time_limit=30)
        result = randomized_rounding_approximation(inst, seed=13, restarts=3)
        assert result.makespan <= 3.0 * opt.makespan

    def test_metadata_contains_search_info(self, small_unrelated):
        result = randomized_rounding_approximation(small_unrelated, seed=4)
        assert "accepted_guess" in result.meta
        assert "rounding_stats" in result.meta
        assert result.meta["search_iterations"] >= 1

    def test_restarts_never_hurt(self):
        inst = unrelated_instance(16, 4, 4, seed=14)
        single = randomized_rounding_approximation(inst, seed=0, restarts=1)
        multi = randomized_rounding_approximation(inst, seed=0, restarts=4)
        # Not guaranteed monotone (different random streams), but both feasible
        # and within a factor 2 of each other on benign instances.
        assert single.schedule.validate() == []
        assert multi.schedule.validate() == []
        assert multi.makespan <= 2.0 * single.makespan

    def test_handles_restricted_assignment_style_matrix(self):
        inst = unrelated_instance(12, 4, 3, seed=15, ineligible_fraction=0.3)
        result = randomized_rounding_approximation(inst, seed=15)
        assert result.schedule.validate() == []

    def test_memo_solves_each_distinct_relaxation_once(self, monkeypatch):
        """Guesses with the same eligibility masks pose the same LP: the
        search solves it once, and the result equals an unmemoised run."""
        from scipy import optimize

        from repro.algorithms.unrelated import lp_rounding

        # Processing times near the makespan, so guesses filter columns.
        inst = unrelated_instance(10, 5, 3, seed=1, processing_range=(1.0, 500.0))
        searches, solves = [], []
        real_search = lp_rounding.dual_approximation_search
        real_linprog = optimize.linprog

        def search(*args, **kwargs):
            searches.append(real_search(*args, **kwargs))
            return searches[-1]

        def linprog(*args, **kwargs):
            solves.append(args)
            return real_linprog(*args, **kwargs)

        monkeypatch.setattr(lp_rounding, "dual_approximation_search", search)
        monkeypatch.setattr(optimize, "linprog", linprog)
        memoised = randomized_rounding_approximation(inst, seed=6)

        masks, lp_guesses = set(), 0
        for guess, _, _ in searches[0].history:
            y = np.isfinite(inst.setups) & (inst.setups <= guess + 1e-6)
            x = (np.isfinite(inst.processing) & (inst.processing <= guess + 1e-6)
                 & y[:, inst.job_classes])
            if x.any(axis=0).all():  # otherwise infeasible without an LP
                masks.add(x.tobytes() + y.tobytes())
                lp_guesses += 1
        assert 1 < len(solves) == len(masks) < len(searches[0].history)

        real_solve = lp_rounding.solve_ilp_um_relaxation
        monkeypatch.setattr(lp_rounding, "solve_ilp_um_relaxation",
                            lambda inst, guess, memo=None, **kw: real_solve(inst, guess, **kw))
        plain = randomized_rounding_approximation(inst, seed=6)
        assert len(solves) == len(masks) + lp_guesses
        assert np.array_equal(plain.schedule.assignment, memoised.schedule.assignment)
        assert plain.meta == memoised.meta

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=8, deadline=None)
    def test_property_schedule_always_valid(self, seed):
        inst = unrelated_instance(10, 3, 3, seed=seed)
        result = randomized_rounding_approximation(inst, seed=seed)
        assert result.schedule.validate() == []
