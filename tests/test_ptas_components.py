"""Tests for the PTAS building blocks: params, simplification, groups, relaxed schedules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.ptas import (
    PTASParams,
    compute_groups,
    convert_relaxed_to_schedule,
    relax_schedule,
    search_relaxed_schedule,
    simplify_instance,
)
from repro.core.bounds import greedy_upper_bound, makespan_bounds
from repro.core.schedule import Schedule
from repro.generators import uniform_instance


class TestParams:
    def test_derived_thresholds(self):
        params = PTASParams(epsilon=0.2)
        assert params.delta == pytest.approx(0.04)
        assert params.gamma == pytest.approx(0.008)

    def test_inflation_factors(self):
        params = PTASParams(epsilon=0.1)
        assert params.simplification_inflation == pytest.approx(1.1 ** 5)
        assert params.total_guarantee > 1.0

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            PTASParams(epsilon=0.0)
        with pytest.raises(ValueError):
            PTASParams(epsilon=0.9)


class TestSimplify:
    def test_returns_none_for_hopeless_guess(self, small_uniform):
        assert simplify_instance(small_uniform, 1e-6) is None

    def test_sizes_only_increase(self, small_uniform):
        guess = makespan_bounds(small_uniform).upper
        simp = simplify_instance(small_uniform, guess, PTASParams(epsilon=0.25))
        assert simp is not None
        # Every surviving real job's size is at least its original size.
        for sim_j, orig_j in enumerate(simp.job_map):
            if orig_j >= 0:
                assert simp.instance.job_sizes[sim_j] >= small_uniform.job_sizes[orig_j] - 1e-9

    def test_speeds_only_decrease(self, small_uniform):
        guess = makespan_bounds(small_uniform).upper
        simp = simplify_instance(small_uniform, guess, PTASParams(epsilon=0.25))
        for new_i, orig_i in enumerate(simp.kept_machines):
            assert simp.instance.speeds[new_i] <= small_uniform.speeds[orig_i] + 1e-9

    def test_size_and_speed_rounding_within_factor(self, small_uniform):
        eps = 0.25
        guess = makespan_bounds(small_uniform).upper
        simp = simplify_instance(small_uniform, guess, PTASParams(epsilon=eps))
        for sim_j, orig_j in enumerate(simp.job_map):
            if orig_j >= 0:
                original = small_uniform.job_sizes[orig_j]
                assert simp.instance.job_sizes[sim_j] <= (1 + eps) ** 2 * max(
                    original, 1e-12) + 1e-9
        for new_i, orig_i in enumerate(simp.kept_machines):
            assert small_uniform.speeds[orig_i] <= (1 + eps) * simp.instance.speeds[new_i] + 1e-9

    def test_placeholders_replace_small_jobs(self):
        from repro.core.instance import Instance
        inst = Instance.uniform(
            job_sizes=[0.5, 0.4, 0.3, 50.0],
            setup_sizes=[20.0],
            job_classes=[0, 0, 0, 0],
            speeds=[1.0, 1.0],
        )
        eps = 0.25
        simp = simplify_instance(inst, 100.0, PTASParams(epsilon=eps))
        assert simp is not None
        # Step I1 first lifts tiny sizes to eps*v_min*T/(n+K) = 5, so the three
        # small jobs (now size 5 each, total 15) are replaced by
        # ceil(15 / (eps*s_k)) = ceil(15/5) = 3 placeholders of size 5.
        assert 0 in simp.replaced_jobs
        assert len(simp.replaced_jobs[0]) == 3
        assert len(simp.placeholder_jobs[0]) == 3
        assert simp.instance.num_jobs == 1 + 3
        # Every placeholder has (at least) the unit size eps*s_k.
        for p_idx in simp.placeholder_jobs[0]:
            assert simp.instance.job_sizes[p_idx] >= eps * 20.0 - 1e-9

    def test_slow_machines_removed(self):
        from repro.core.instance import Instance
        inst = Instance.uniform(
            job_sizes=[10.0, 20.0],
            setup_sizes=[5.0],
            job_classes=[0, 0],
            speeds=[100.0, 0.001],  # second machine slower than eps*v_max/m
        )
        simp = simplify_instance(inst, 1.0, PTASParams(epsilon=0.25))
        assert simp is not None
        assert len(simp.kept_machines) == 1
        assert simp.kept_machines[0] == 0

    def test_convert_back_produces_feasible_schedule(self, small_uniform):
        guess = makespan_bounds(small_uniform).upper
        params = PTASParams(epsilon=0.25)
        simp = simplify_instance(small_uniform, guess, params)
        # Schedule every simplified job on machine 0 and convert back.
        sched = Schedule(simp.instance, np.zeros(simp.instance.num_jobs, dtype=int))
        back = simp.convert_back(sched)
        assert back.validate() == []

    def test_convert_back_preserves_makespan_up_to_epsilon(self):
        """A schedule for the simplified instance maps back without load blow-up."""
        eps = 0.25
        for seed in range(3):
            inst = uniform_instance(14, 3, 3, seed=seed, integral=True)
            guess = makespan_bounds(inst).upper
            params = PTASParams(epsilon=eps)
            simp = simplify_instance(inst, guess, params)
            _, greedy = greedy_upper_bound(simp.instance)
            back = simp.convert_back(greedy)
            assert back.validate() == []
            assert back.makespan() <= (1 + eps) * greedy.makespan() + 1e-6

    def test_rejects_unrelated(self, small_unrelated):
        with pytest.raises(ValueError):
            simplify_instance(small_unrelated, 10.0)


class TestGroups:
    def _structure(self, seed=1, eps=0.25, spread=64.0):
        inst = uniform_instance(20, 8, 4, seed=seed, speed_spread=spread)
        guess = makespan_bounds(inst).upper
        params = PTASParams(epsilon=eps)
        simp = simplify_instance(inst, guess, params)
        return compute_groups(simp.instance, simp.inflated_guess, params)

    def test_every_machine_in_one_or_two_consecutive_groups(self):
        groups = self._structure()
        for lo, hi in groups.machine_groups:
            assert hi - lo in (0, 1)

    def test_group_bounds_overlap(self):
        groups = self._structure()
        lo0, hi0 = groups.group_bounds(0)
        lo1, hi1 = groups.group_bounds(1)
        assert lo1 < hi0  # consecutive groups overlap

    def test_machine_speed_inside_its_groups(self):
        groups = self._structure()
        inst = groups.instance
        for i, (lo, hi) in enumerate(groups.machine_groups):
            v = inst.speeds[i]
            for g in {lo, hi}:
                glo, ghi = groups.group_bounds(g)
                assert glo <= v * (1 + 1e-9)
                assert v < ghi * (1 + 1e-9)

    def test_remark_2_5_every_job_core_or_fringe(self):
        groups = self._structure()
        inst = groups.instance
        for k in inst.classes_present():
            core = set(groups.core_jobs_of_class(int(k)))
            fringe = set(groups.fringe_jobs_of_class(int(k)))
            members = set(int(j) for j in inst.jobs_of_class(int(k)))
            assert core | fringe == members
            assert core & fringe == set()

    def test_remark_2_6_core_jobs_small_on_fringe_machines(self):
        """Core jobs of a class are small on the class's fringe machines."""
        checked = 0
        # The default structure has no fringe machine under a core job;
        # the other two do, so the remark is exercised.
        for seed, eps in ((1, 0.25), (3, 0.25), (1, 0.5)):
            groups = self._structure(seed=seed, eps=eps)
            inst = groups.instance
            T, gamma = groups.guess, groups.params.gamma
            for k in (int(c) for c in inst.classes_present()):
                # Fringe machines of class k: T*v_i >= s_k/gamma.
                fringe = [float(v) for v in inst.speeds
                          if T * v >= inst.setup_sizes[k] / gamma]
                for j in groups.core_jobs_of_class(k):
                    for v in fringe:
                        # Small on speed v means p_j < eps*v*T.
                        assert inst.job_sizes[j] < eps * v * T
                        checked += 1
        assert checked > 0

    def test_remark_2_7_core_job_big_for_some_core_group_speed(self):
        """A core job's size is big for at least one speed inside the class's core group."""
        groups = self._structure()
        inst = groups.instance
        eps = groups.params.epsilon
        for k in (int(c) for c in inst.classes_present()):
            g = int(groups.class_core_group[k])
            lo, hi = groups.group_bounds(g)
            for j in groups.core_jobs_of_class(k):
                p = float(inst.job_sizes[j])
                # Big for speed v means eps*v*T <= p <= v*T, i.e. v in [p/T, p/(eps*T)].
                v_low = p / groups.guess
                v_high = p / (eps * groups.guess)
                assert v_low < hi and v_high > lo, (
                    f"core job {j} of class {k} is big for no speed of its core group")

    def test_core_machine_interval_inside_core_group(self):
        """Figure 1: the core-machine speed interval of each class sits inside its core group."""
        groups = self._structure()
        inst = groups.instance
        for k in (int(c) for c in inst.classes_present()):
            g = int(groups.class_core_group[k])
            glo, ghi = groups.group_bounds(g)
            # Possible core-machine speeds: [s_k/T, s_k/(gamma*T)).
            s_k = float(inst.setup_sizes[k])
            clo = s_k / groups.guess
            chi = s_k / (groups.params.gamma * groups.guess)
            assert clo >= glo - 1e-9
            assert chi <= ghi * (1 + 1e-9)

    def test_native_group_contains_big_speed_interval(self):
        groups = self._structure()
        inst = groups.instance
        for j in range(inst.num_jobs):
            g = int(groups.job_native_group[j])
            glo, ghi = groups.group_bounds(g)
            # Speeds for which j is big: (p_j/T, p_j/(eps*T)].
            p_j = float(inst.job_sizes[j])
            jlo = p_j / groups.guess
            jhi = p_j / (groups.params.epsilon * groups.guess)
            assert jlo >= glo - 1e-9
            assert jhi <= ghi * (1 + 1e-9)

    def test_rejects_bad_arguments(self, small_uniform, small_unrelated):
        with pytest.raises(ValueError):
            compute_groups(small_unrelated, 10.0)
        with pytest.raises(ValueError):
            compute_groups(small_uniform, -1.0)


class TestRelaxedSchedules:
    def _setup(self, seed=3, eps=0.25):
        inst = uniform_instance(16, 4, 4, seed=seed, integral=True, speed_spread=8.0)
        params = PTASParams(epsilon=eps)
        guess = makespan_bounds(inst).upper
        simp = simplify_instance(inst, guess, params)
        groups = compute_groups(simp.instance, simp.inflated_guess, params)
        return simp, groups

    def test_lemma_2_8_first_direction(self):
        """A feasible schedule induces a valid relaxed schedule of the same makespan bound."""
        simp, groups = self._setup()
        ub, greedy = greedy_upper_bound(simp.instance)
        # Use a guess large enough that the greedy schedule fits: recompute
        # groups with that guess so L'_i <= T v_i holds by construction.
        params = groups.params
        groups_big = compute_groups(simp.instance, ub * 1.01, params)
        relaxed = relax_schedule(greedy, groups_big)
        assert relaxed.violations() == []

    def test_search_produces_valid_relaxed_schedule(self):
        simp, groups = self._setup()
        relaxed = search_relaxed_schedule(groups)
        assert relaxed is not None
        assert relaxed.is_valid()

    def test_search_rejects_absurd_guess(self):
        inst = uniform_instance(16, 4, 4, seed=5, integral=True)
        params = PTASParams(epsilon=0.25)
        guess = makespan_bounds(inst).upper
        simp = simplify_instance(inst, guess, params)
        tiny_groups = compute_groups(simp.instance, guess * 1e-3, params)
        assert search_relaxed_schedule(tiny_groups) is None

    def test_search_falls_back_to_tight_packing(self, monkeypatch):
        """Balanced greedy breaks the space condition here; the tight packing's schedule is returned."""
        import repro.algorithms.ptas.search as search_module

        inst = uniform_instance(8, 3, 3, seed=1, integral=True)
        params = PTASParams(epsilon=0.1)
        simp = simplify_instance(inst, makespan_bounds(inst).lower, params)
        groups = compute_groups(simp.instance, simp.inflated_guess, params)
        built = {}
        run_strategy = search_module._run_strategy

        def recording_run_strategy(*args):
            built[args[-1]] = run_strategy(*args)
            return built[args[-1]]

        monkeypatch.setattr(search_module, "_run_strategy", recording_run_strategy)
        relaxed = search_relaxed_schedule(groups)
        assert list(built) == ["balanced", "tight"]
        assert not built["balanced"].is_valid()
        assert relaxed is built["tight"]
        assert relaxed.is_valid()

    def test_convert_covers_all_jobs(self):
        simp, groups = self._setup()
        relaxed = search_relaxed_schedule(groups)
        schedule = convert_relaxed_to_schedule(relaxed)
        assert schedule.is_complete
        assert schedule.validate() == []

    def test_convert_makespan_bounded_by_guarantee(self):
        """The converted schedule stays within the 1+O(ε) factor of the guess."""
        for seed in range(3):
            inst = uniform_instance(14, 4, 4, seed=seed, integral=True, speed_spread=4.0)
            params = PTASParams(epsilon=0.25)
            guess = makespan_bounds(inst).upper  # certainly feasible
            simp = simplify_instance(inst, guess, params)
            groups = compute_groups(simp.instance, simp.inflated_guess, params)
            relaxed = search_relaxed_schedule(groups)
            assert relaxed is not None
            schedule = convert_relaxed_to_schedule(relaxed)
            # Generous structural bound: conversion inflation on top of the
            # (already inflated) guess.
            limit = simp.inflated_guess * params.conversion_inflation
            assert schedule.makespan() <= limit * (1 + 1e-6)

    def test_relaxed_load_ignores_fringe_setups(self):
        simp, groups = self._setup()
        inst = groups.instance
        fringe_jobs = [j for j in range(inst.num_jobs) if groups.job_is_fringe[j]]
        if not fringe_jobs:
            pytest.skip("instance has no fringe jobs")
        relaxed = search_relaxed_schedule(groups)
        loads = relaxed.relaxed_loads()
        # Moving a fringe job's setup should not be included: recompute by hand.
        j = fringe_jobs[0]
        if relaxed.assignment[j] >= 0:
            i = int(relaxed.assignment[j])
            manual = sum(float(inst.job_sizes[jj]) for jj in relaxed.integral_jobs()
                         if int(relaxed.assignment[jj]) == i)
            assert loads[i] >= manual - 1e-9
