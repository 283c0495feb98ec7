"""Tests for the Section 3.3 constant-factor algorithms (Theorems 3.10, 3.11)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algorithms import milp_optimal
from repro.algorithms.restricted import (
    class_uniform_ptimes_approximation,
    class_uniform_ptimes_decision,
    class_uniform_restrictions_approximation,
    class_uniform_restrictions_decision,
    RelaxedRAFlow,
    round_support_graph,
    solve_lp_relaxed_ra,
    support_graph,
    verify_pseudoforest,
)
from repro.algorithms.restricted.lp_relaxed_ra import class_workload_matrix
from repro.core.bounds import makespan_bounds
from repro.core.instance import Instance
from repro.generators import (
    class_uniform_ptimes_instance,
    class_uniform_restrictions_instance,
    identical_instance,
    uniform_instance,
)


def _cu_instance(seed: int) -> Instance:
    """A class-uniform restrictions instance, small or medium by seed parity."""
    n, m, k, most = ((16, 4, 5, 3), (30, 6, 8, 4))[seed % 2]
    return class_uniform_restrictions_instance(n, m, k, seed=seed,
                                               min_eligible=1, max_eligible=most)


def _flow_threshold(inst: Instance) -> float:
    """The least guess the flow accepts, bisected to machine precision."""
    flow = RelaxedRAFlow(inst)
    lo, hi = 0.0, makespan_bounds(inst).upper
    assert flow.solve(hi).feasible
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (lo, mid) if flow.solve(mid).feasible else (mid, hi)
    return hi


def _is_forest(edges) -> bool:
    """Whether the undirected ``edges`` close no cycle (union-find)."""
    root = {}

    def find(node):
        while root.setdefault(node, node) != node:
            node = root[node]
        return node

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        root[ru] = rv
    return True


def _scaled(inst: Instance, factor: float) -> Instance:
    return Instance.restricted(inst.job_sizes * factor, inst.setup_sizes * factor,
                               inst.job_classes, np.isfinite(inst.processing))


class TestLPRelaxedRA:
    def test_feasible_at_optimum(self, small_cu_restrictions):
        opt = milp_optimal(small_cu_restrictions, time_limit=30)
        relax = solve_lp_relaxed_ra(small_cu_restrictions, opt.makespan, variant="restrictions")
        assert relax.feasible

    def test_infeasible_for_tiny_guess(self, small_cu_restrictions):
        relax = solve_lp_relaxed_ra(small_cu_restrictions, 1e-3, variant="restrictions")
        assert not relax.feasible

    def test_distribution_constraint(self, small_cu_restrictions):
        opt = milp_optimal(small_cu_restrictions, time_limit=30)
        relax = solve_lp_relaxed_ra(small_cu_restrictions, opt.makespan * 1.2)
        for k in small_cu_restrictions.classes_present():
            assert relax.x[:, k].sum() == pytest.approx(1.0, abs=1e-6)

    def test_constraint14_blocks_large_setups(self):
        inst = class_uniform_restrictions_instance(12, 4, 4, seed=1,
                                                   setup_range=(50.0, 80.0))
        relax = solve_lp_relaxed_ra(inst, 40.0, variant="restrictions")
        # Every setup exceeds the guess, so no variable may exist.
        assert not relax.feasible

    def test_workload_matrix(self, small_cu_restrictions):
        workload = class_workload_matrix(small_cu_restrictions)
        inst = small_cu_restrictions
        for k in inst.classes_present():
            members = inst.jobs_of_class(int(k))
            eligible = inst.eligible_machines(int(members[0]))
            for i in eligible:
                assert workload[i, k] == pytest.approx(inst.processing[i, members].sum())

    def test_invalid_variant(self, small_cu_restrictions):
        with pytest.raises(ValueError):
            solve_lp_relaxed_ra(small_cu_restrictions, 10.0, variant="bogus")


class TestRelaxedRAFlow:
    """The transportation max flow that decides LP-RelaxedRA for Theorem 3.10."""

    @given(seed=st.integers(0, 2000),
           factors=st.lists(st.floats(0.5, 2.0), min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_verdict_matches_lp(self, seed, factors):
        inst = _cu_instance(seed)
        threshold = _flow_threshold(inst)
        flow = RelaxedRAFlow(inst)
        for factor in factors:
            assume(abs(factor - 1.0) > 1e-6)
            guess = threshold * factor
            lp = solve_lp_relaxed_ra(inst, guess, variant="restrictions")
            assert flow.solve(guess).feasible == lp.feasible == (factor > 1.0)

    def test_solution_satisfies_lp_with_forest_support(self):
        # About 2% of these flows have a cycle before cancelling (seed 16, say).
        for seed in range(24):
            inst = _cu_instance(seed)
            threshold = _flow_threshold(inst)
            flow = RelaxedRAFlow(inst)
            for guess in threshold * np.geomspace(1.0, 3.0, 12):
                relax = flow.solve(guess)
                assert relax.feasible
                present = inst.classes_present()
                assert np.allclose(relax.x[:, present].sum(axis=0), 1.0, rtol=1e-12, atol=0.0)
                eligible = np.isfinite(relax.workload) & np.isfinite(inst.setups)
                assert np.all(relax.x[~eligible] == 0.0)
                # Constraint (11), with w_k(T) = p̄_k + α_k(T)·s_k.
                setups = np.where(eligible, inst.setups, 0.0)
                p = np.where(eligible, relax.workload, 0.0)
                with np.errstate(divide="ignore", invalid="ignore"):
                    alpha = np.where(guess > setups, np.maximum(1.0, p / (guess - setups)), 1.0)
                load = (relax.x * (p + alpha * setups)).sum(axis=1)
                # The flow may leave 1e-9 of the total supply (≤ m·T) unshipped.
                assert np.all(load <= guess * (1 + 1e-9 * (inst.num_machines + 1)))
                assert _is_forest((("machine", i), ("class", k))
                                  for i, k in zip(*np.nonzero(relax.x)))

    @given(seed=st.integers(0, 2000), factor=st.floats(0.9, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_accepted_schedule_within_twice_guess(self, seed, factor):
        inst = _cu_instance(seed)
        guess = _flow_threshold(inst) * factor
        schedule = class_uniform_restrictions_decision(inst, guess)
        if schedule is not None:
            assert schedule.validate() == []
            assert schedule.makespan() <= 2.0 * guess * (1 + 1e-9)

    @pytest.mark.parametrize("exponent", [-30, -10, 20])
    def test_scaling_times_by_power_of_two_keeps_assignment(self, exponent):
        for seed in range(30):
            inst = _cu_instance(seed)
            base = class_uniform_restrictions_approximation(inst)
            scaled = class_uniform_restrictions_approximation(_scaled(inst, 2.0 ** exponent))
            assert np.array_equal(base.schedule.assignment, scaled.schedule.assignment)

    def test_rejects_class_with_machine_dependent_workload(self):
        inst = uniform_instance(15, 3, 4, seed=2, integral=True)
        assert len(set(inst.speeds)) > 1
        with pytest.raises(ValueError, match="class"):
            class_uniform_restrictions_approximation(inst)
        with pytest.raises(ValueError, match="class"):
            RelaxedRAFlow(inst)


class TestPseudoforestRounding:
    def test_support_graph_only_fractional_edges(self):
        x = np.array([[1.0, 0.4], [0.0, 0.6]])
        graph = support_graph(x)
        # Only the 0.4/0.6 column, nodes in the order the edges added them.
        assert graph == {("machine", 0): {("class", 1): 0.4},
                         ("class", 1): {("machine", 0): 0.4, ("machine", 1): 0.6},
                         ("machine", 1): {("class", 1): 0.6}}
        assert list(graph) == [("machine", 0), ("class", 1), ("machine", 1)]

    def test_verify_pseudoforest(self):
        x = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert verify_pseudoforest(support_graph(x))

    def test_round_integral_assignment(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        rounding = round_support_graph(x)
        assert rounding.integral_assignment == {0: 0, 1: 1}
        assert rounding.kept_machines == {}

    def test_round_single_fractional_class(self):
        x = np.array([[0.7], [0.3]])
        rounding = round_support_graph(x)
        kept = rounding.kept_machines[0]
        dropped = rounding.dropped_machine[0]
        # Lemma 3.8: at most one supporting machine loses its edge.
        assert len(kept) + (1 if dropped is not None else 0) == 2
        assert dropped is None or dropped not in kept

    def test_lemma_3_8_properties_on_cycle(self):
        # A 2-class / 2-machine cycle: each node has degree 2.
        x = np.array([[0.5, 0.5], [0.5, 0.5]])
        rounding = round_support_graph(x)
        machine_degree = {0: 0, 1: 0}
        for k in (0, 1):
            for i in rounding.kept_machines[k]:
                machine_degree[i] += 1
        # Property 1: every machine keeps at most one edge.
        assert all(d <= 1 for d in machine_degree.values())
        # Property 2: every class loses at most one machine.
        for k in (0, 1):
            assert (rounding.dropped_machine[k] is None) or True
            lost = 2 - len(rounding.kept_machines[k])
            assert lost <= 1

    def test_lemma_3_8_on_lp_solutions(self):
        """Properties of Lemma 3.8 hold for actual extreme LP solutions."""
        for seed in range(4):
            inst = class_uniform_restrictions_instance(16, 5, 6, seed=seed,
                                                       min_eligible=2, max_eligible=4)
            opt = milp_optimal(inst, time_limit=30)
            relax = solve_lp_relaxed_ra(inst, opt.makespan, variant="restrictions")
            if not relax.feasible:
                continue
            assert verify_pseudoforest(support_graph(relax.x))
            rounding = round_support_graph(relax.x)
            machine_kept = {}
            for k, machines in rounding.kept_machines.items():
                for i in machines:
                    machine_kept.setdefault(i, []).append(k)
            assert all(len(ks) <= 1 for ks in machine_kept.values())

    def test_rounding_independent_of_hash_seed(self):
        """A 4-cycle beside a longer path: the cycle's component holds fewer
        than half the nodes, where a set-ordered traversal picked the cycle's
        direction, and with it the dropped edges, by string hashing."""
        script = (
            "import numpy as np\n"
            "from repro.algorithms.restricted import round_support_graph\n"
            "x = np.zeros((6, 6))\n"
            "x[0, 0] = x[0, 1] = x[1, 0] = x[1, 1] = 0.5\n"
            "x[2, 2] = x[3, 2] = x[3, 3] = x[4, 3] = x[4, 4] = x[5, 4] = x[5, 5] = 0.5\n"
            "r = round_support_graph(x)\n"
            "print(sorted(r.kept_machines.items()), sorted(r.dropped_machine.items()))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        runs = [subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                                 text=True, env={**os.environ, "PYTHONPATH": src,
                                                 "PYTHONHASHSEED": str(seed)})
                for seed in range(4)]
        outputs = {run.communicate(timeout=120)[0] for run in runs}
        assert all(run.returncode == 0 for run in runs)
        assert outputs == {"[(0, [0]), (1, [1]), (2, [2, 3]), (3, [4]), (4, [5]), (5, [])] "
                           "[(0, 1), (1, 0), (2, None), (3, 3), (4, 4), (5, 5)]\n"}

    def test_non_pseudoforest_rejected(self):
        # A dense fractional matrix whose support is K_{3,3} (not a pseudo-forest).
        x = np.full((3, 3), 1.0 / 3.0)
        with pytest.raises(ValueError):
            round_support_graph(x)


class TestClassUniformRestrictions:
    def test_decision_accepts_optimum_within_factor_2(self):
        for seed in range(4):
            inst = class_uniform_restrictions_instance(18, 4, 5, seed=seed,
                                                       min_eligible=2, max_eligible=3)
            opt = milp_optimal(inst, time_limit=30)
            schedule = class_uniform_restrictions_decision(inst, opt.makespan)
            assert schedule is not None
            assert schedule.validate() == []
            assert schedule.makespan() <= 2.0 * opt.makespan * (1 + 1e-6)

    def test_decision_rejects_tiny_guess(self, small_cu_restrictions):
        assert class_uniform_restrictions_decision(small_cu_restrictions, 1e-3) is None

    def test_approximation_respects_guarantee(self):
        """Theorem 3.10: never worse than 2·OPT (plus search slack)."""
        for seed in range(5):
            inst = class_uniform_restrictions_instance(20, 5, 6, seed=seed,
                                                       min_eligible=2, max_eligible=4)
            opt = milp_optimal(inst, time_limit=30)
            result = class_uniform_restrictions_approximation(inst)
            assert result.schedule.validate() == []
            assert result.makespan <= 2.0 * 1.03 * opt.makespan * (1 + 1e-6)

    def test_rejects_non_class_uniform_instance(self):
        from repro.generators import restricted_instance
        inst = restricted_instance(30, 5, 3, seed=1, min_eligible=2, max_eligible=4)
        if not inst.has_class_uniform_restrictions():
            with pytest.raises(ValueError):
                class_uniform_restrictions_approximation(inst)

    def test_works_on_unrestricted_uniform_instance(self):
        # Identical machines (uniform with unit speeds) trivially have
        # class-uniform restrictions and per-class constant p̄ and s.
        inst = identical_instance(15, 3, 4, seed=2, integral=True)
        result = class_uniform_restrictions_approximation(inst)
        assert result.schedule.validate() == []

    def test_instance_without_jobs(self):
        # No class is present, so every guess is feasible for the flow.
        inst = Instance.identical([], [1.0, 2.0], [], 3)
        assert RelaxedRAFlow(inst).solve(1.0).feasible
        result = class_uniform_restrictions_approximation(inst)
        assert result.schedule.validate() == []
        assert result.makespan == 0.0

    def test_respects_eligibility(self):
        inst = class_uniform_restrictions_instance(20, 5, 5, seed=3,
                                                   min_eligible=1, max_eligible=2)
        result = class_uniform_restrictions_approximation(inst)
        for j in range(inst.num_jobs):
            machine = result.schedule.machine_of(j)
            assert inst.is_eligible(machine, j)

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=8, deadline=None)
    def test_property_always_feasible(self, seed):
        inst = class_uniform_restrictions_instance(14, 4, 4, seed=seed,
                                                   min_eligible=2, max_eligible=3)
        result = class_uniform_restrictions_approximation(inst)
        assert result.schedule.validate() == []


class TestClassUniformPtimes:
    def test_decision_accepts_optimum_within_factor_3(self):
        for seed in range(4):
            inst = class_uniform_ptimes_instance(18, 4, 5, seed=seed)
            opt = milp_optimal(inst, time_limit=30)
            schedule = class_uniform_ptimes_decision(inst, opt.makespan)
            assert schedule is not None
            assert schedule.validate() == []
            assert schedule.makespan() <= 3.0 * opt.makespan * (1 + 1e-6)

    def test_approximation_respects_guarantee(self):
        """Theorem 3.11: never worse than 3·OPT (plus search slack)."""
        for seed in range(5):
            inst = class_uniform_ptimes_instance(20, 5, 6, seed=seed)
            opt = milp_optimal(inst, time_limit=30)
            result = class_uniform_ptimes_approximation(inst)
            assert result.schedule.validate() == []
            assert result.makespan <= 3.0 * 1.03 * opt.makespan * (1 + 1e-6)

    def test_rejects_non_class_uniform_instance(self, small_unrelated):
        if not small_unrelated.has_class_uniform_processing_times():
            with pytest.raises(ValueError):
                class_uniform_ptimes_approximation(small_unrelated)

    def test_decision_rejects_tiny_guess(self, small_cu_ptimes):
        assert class_uniform_ptimes_decision(small_cu_ptimes, 1e-3) is None

    def test_metadata(self, small_cu_ptimes):
        result = class_uniform_ptimes_approximation(small_cu_ptimes)
        assert result.meta["search_iterations"] >= 1
        assert result.guarantee >= 3.0
