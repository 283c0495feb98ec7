"""Tests for LPT (Lemma 2.1), list-scheduling baselines and their guarantees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    best_machine_schedule,
    class_aware_list_schedule,
    class_oblivious_list_schedule,
    lpt_uniform_with_setups,
    lpt_without_setups,
    milp_optimal,
)
from repro.algorithms.lpt import LPT_GUARANTEE, PLAIN_LPT_GUARANTEE, lpt_assign_sizes
from repro.core.bounds import greedy_upper_bound
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.generators import uniform_instance, unrelated_instance


class TestLptAssignSizes:
    def test_classic_identical_machines(self):
        # Sizes 5,4,3,2,2 on two identical machines: LPT places 5 | 4,3 and
        # then one 2 on each machine, giving makespan 9 (optimum is 8).
        assignment = lpt_assign_sizes([5, 4, 3, 2, 2], [1.0, 1.0])
        loads = np.zeros(2)
        for j, i in enumerate(assignment):
            loads[i] += [5, 4, 3, 2, 2][j]
        assert loads.max() == pytest.approx(9.0)
        assert loads.min() == pytest.approx(7.0)

    def test_respects_speeds(self):
        # One fast machine should take the big job.
        assignment = lpt_assign_sizes([10.0, 1.0], [1.0, 10.0])
        assert assignment[0] == 1

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError):
            lpt_assign_sizes([1.0], [0.0])

    def test_plain_lpt_guarantee_on_random_instances(self):
        """Plain LPT (no setups involved) respects the Kovács bound empirically."""
        for seed in range(5):
            inst = uniform_instance(12, 3, 3, seed=seed, integral=True)
            no_setup = inst.without_setups()
            opt = milp_optimal(no_setup, time_limit=20)
            result = lpt_without_setups(no_setup)
            assert result.makespan <= PLAIN_LPT_GUARANTEE * opt.makespan + 1e-6


class TestLptWithSetups:
    def test_produces_complete_feasible_schedule(self, small_uniform):
        result = lpt_uniform_with_setups(small_uniform)
        assert result.schedule.validate() == []
        assert result.guarantee == pytest.approx(LPT_GUARANTEE)

    def test_guarantee_value(self):
        assert LPT_GUARANTEE == pytest.approx(3 * (1 + 1 / np.sqrt(3)))
        assert 4.7 < LPT_GUARANTEE < 4.8

    def test_respects_guarantee_against_optimum(self):
        for seed in range(6):
            inst = uniform_instance(14, 3, 4, seed=seed, integral=True)
            opt = milp_optimal(inst, time_limit=30)
            result = lpt_uniform_with_setups(inst)
            assert result.makespan <= LPT_GUARANTEE * opt.makespan * (1 + 1e-9)

    def test_respects_guarantee_dominant_setups(self):
        for seed in range(3):
            inst = uniform_instance(14, 3, 4, seed=seed, integral=True,
                                    setup_regime="dominant")
            opt = milp_optimal(inst, time_limit=30)
            result = lpt_uniform_with_setups(inst)
            assert result.makespan <= LPT_GUARANTEE * opt.makespan * (1 + 1e-9)

    def test_placeholders_created_for_small_jobs(self):
        # One class whose jobs are all much smaller than its setup.
        inst = Instance.uniform(
            job_sizes=[1.0, 1.0, 1.0, 1.0, 20.0],
            setup_sizes=[10.0, 5.0],
            job_classes=[0, 0, 0, 0, 1],
            speeds=[1.0, 1.0],
        )
        result = lpt_uniform_with_setups(inst)
        assert result.meta["num_placeholders"] >= 1
        assert result.schedule.validate() == []

    def test_zero_setup_class_handled(self):
        inst = Instance.uniform(
            job_sizes=[3.0, 4.0, 5.0],
            setup_sizes=[0.0],
            job_classes=[0, 0, 0],
            speeds=[1.0, 2.0],
        )
        result = lpt_uniform_with_setups(inst)
        assert result.schedule.validate() == []

    def test_rejects_unrelated_instance(self, small_unrelated):
        with pytest.raises(ValueError):
            lpt_uniform_with_setups(small_unrelated)

    def test_single_machine(self):
        inst = uniform_instance(10, 1, 3, seed=5, integral=True)
        result = lpt_uniform_with_setups(inst)
        # On one machine every schedule has the same makespan: total work + setups.
        expected = inst.job_sizes.sum() + inst.setup_sizes[inst.classes_present()].sum()
        assert result.makespan == pytest.approx(expected / inst.speeds[0])

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_property_feasible_and_bounded_by_greedy_bound(self, seed):
        inst = uniform_instance(15, 3, 4, seed=seed, integral=True)
        result = lpt_uniform_with_setups(inst)
        assert result.schedule.validate() == []
        # Sanity: within the guarantee of the trivial lower bound.
        from repro.core.bounds import lower_bound
        assert result.makespan <= LPT_GUARANTEE * max(lower_bound(inst), 1e-9) * (1 + 1e-6) \
            or result.makespan <= LPT_GUARANTEE * lower_bound(inst) + 1e-6 \
            or lower_bound(inst) == 0


class TestListSchedulingBaselines:
    def test_all_baselines_feasible(self, small_uniform, small_unrelated, small_restricted):
        for inst in (small_uniform, small_unrelated, small_restricted):
            for algo in (class_aware_list_schedule, class_oblivious_list_schedule,
                         best_machine_schedule):
                result = algo(inst)
                assert result.schedule.validate() == [], algo.__name__

    def test_class_aware_beats_oblivious_with_dominant_setups(self):
        wins = 0
        trials = 5
        for seed in range(trials):
            inst = uniform_instance(40, 4, 8, seed=seed, integral=True,
                                    setup_regime="dominant")
            aware = class_aware_list_schedule(inst)
            oblivious = class_oblivious_list_schedule(inst)
            if aware.makespan <= oblivious.makespan + 1e-9:
                wins += 1
        assert wins >= trials - 1  # the motivation of the model: batching wins

    def test_best_machine_unbalanced_on_uniform(self):
        inst = uniform_instance(30, 4, 5, seed=1, integral=True, speed_spread=8.0)
        best = best_machine_schedule(inst)
        aware = class_aware_list_schedule(inst)
        # Sending everything to the fastest machine is much worse than greedy.
        assert best.makespan >= aware.makespan

    def test_result_metadata(self, small_uniform):
        result = class_aware_list_schedule(small_uniform)
        assert result.makespan == pytest.approx(result.schedule.makespan())
        assert result.runtime_seconds >= 0.0
        assert result.ratio_to(result.makespan) == pytest.approx(1.0)
        assert result.ratio_to(0.0) == float("inf")


# ----------------------------------------------------------------------
# Equivalence with the numpy placement loops the Python-float loops
# replaced.  The references below are those loops, kept verbatim in
# behaviour; the fast code must match them bit for bit, ties included.
# ----------------------------------------------------------------------

def _reference_lpt_assign_sizes(sizes, speeds):
    sizes_arr = np.asarray(sizes, dtype=float)
    speeds_arr = np.asarray(speeds, dtype=float)
    order = np.argsort(-sizes_arr, kind="stable")
    work = np.zeros(speeds_arr.shape[0])
    assignment = np.empty(sizes_arr.shape[0], dtype=int)
    for j in order:
        finish = (work + sizes_arr[j]) / speeds_arr
        i = int(np.argmin(finish))
        assignment[j] = i
        work[i] += sizes_arr[j]
    return assignment


def _reference_greedy_assignment(inst):
    assignment = np.full(inst.num_jobs, -1)
    loads = np.zeros(inst.num_machines)
    has_setup = np.zeros((inst.num_machines, inst.num_classes), dtype=bool)
    class_order = sorted(
        inst.classes_present().tolist(),
        key=lambda k: -float(np.sum(np.nan_to_num(
            np.min(inst.processing[:, inst.jobs_of_class(k)], axis=0), posinf=0.0))),
    )
    for k in class_order:
        jobs = inst.jobs_of_class(k)
        best_time = np.min(inst.processing[:, jobs], axis=0)
        order = jobs[np.argsort(-np.nan_to_num(best_time, posinf=np.inf))]
        for j in order:
            candidate = loads + inst.processing[:, j] + np.where(
                has_setup[:, k], 0.0, inst.setups[:, k])
            candidate = np.where(np.isfinite(inst.processing[:, j]), candidate, np.inf)
            i = int(np.argmin(candidate))
            if not np.isfinite(candidate[i]):
                raise ValueError(f"job {j} has no eligible machine")
            assignment[j] = i
            loads[i] = candidate[i]
            has_setup[i, k] = True
    return assignment


def _reference_class_oblivious_assignment(inst):
    assignment = np.full(inst.num_jobs, -1)
    proc_loads = np.zeros(inst.num_machines)
    best_time = np.min(np.where(np.isfinite(inst.processing), inst.processing, np.inf), axis=0)
    for j in np.argsort(-best_time):
        times = inst.processing[:, j]
        candidate = np.where(np.isfinite(times), proc_loads + times, np.inf)
        i = int(np.argmin(candidate))
        assignment[j] = i
        proc_loads[i] = candidate[i]
    return assignment


def _reference_machine_loads(schedule):
    inst = schedule.instance
    loads = np.zeros(inst.num_machines)
    assigned = schedule.assignment != -1
    if not np.any(assigned):
        return loads
    jobs = np.flatnonzero(assigned)
    machines = schedule.assignment[jobs]
    np.add.at(loads, machines, inst.processing[machines, jobs])
    pair_ids = machines.astype(np.int64) * inst.num_classes + inst.job_classes[jobs]
    unique_pairs = np.unique(pair_ids)
    pair_machines = unique_pairs // inst.num_classes
    pair_classes = unique_pairs % inst.num_classes
    np.add.at(loads, pair_machines, inst.setups[pair_machines, pair_classes])
    return loads


#: Small integers, so that equal finish times (ties) are common.
_SMALL = st.integers(0, 4).map(float)
_SPEEDS = st.sampled_from((0.5, 1.0, 2.0, 3.0))


def _fixed_lists(elements, size):
    return st.lists(elements, min_size=size, max_size=size)


@st.composite
def _small_instances(draw):
    """Uniform (integral), unrelated or restricted instances, 1-9 jobs.

    Unrelated ones carry ``inf`` processing and setup entries; every job
    keeps at least one finite processing time, but a class may have an
    ``inf`` setup there, which leaves the job no placement.
    """
    n, m, num_classes = draw(st.integers(1, 9)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    classes = draw(_fixed_lists(st.integers(0, num_classes - 1), n))
    kind = draw(st.sampled_from(("uniform", "unrelated", "restricted")))
    if kind == "uniform":
        return Instance.uniform(draw(_fixed_lists(_SMALL, n)),
                                draw(_fixed_lists(_SMALL, num_classes)),
                                classes, draw(_fixed_lists(_SPEEDS, m)))
    home = draw(_fixed_lists(st.integers(0, m - 1), n))
    if kind == "restricted":
        eligible = np.array(draw(_fixed_lists(_fixed_lists(st.booleans(), n), m)))
        eligible[home, np.arange(n)] = True
        return Instance.restricted(draw(_fixed_lists(_SMALL, n)),
                                   draw(_fixed_lists(_SMALL, num_classes)),
                                   classes, eligible)
    entries = st.one_of(_SMALL, st.just(np.inf))
    processing = np.array(draw(_fixed_lists(_fixed_lists(entries, n), m)))
    processing[home, np.arange(n)] = draw(_fixed_lists(_SMALL, n))
    setups = np.array(draw(_fixed_lists(_fixed_lists(entries, num_classes), m)))
    return Instance.unrelated(processing, setups, classes)


def _outcome(fn, *args):
    """``fn(*args)`` as an array, or the ``ValueError`` message it raised."""
    try:
        return np.asarray(fn(*args))
    except ValueError as exc:
        return str(exc)


def _hex(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


class TestPlacementLoopsMatchNumpyReferences:
    @given(sizes=st.lists(_SMALL, max_size=12), speeds=st.lists(_SPEEDS, min_size=1, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_lpt_assign_sizes(self, sizes, speeds):
        fast = lpt_assign_sizes(sizes, speeds)
        assert isinstance(fast, np.ndarray)
        assert fast.tolist() == _reference_lpt_assign_sizes(sizes, speeds).tolist()

    @given(inst=_small_instances())
    @settings(max_examples=300, deadline=None)
    def test_greedy_upper_bound(self, inst):
        expected = _outcome(_reference_greedy_assignment, inst)
        got = _outcome(lambda i: greedy_upper_bound(i)[1].assignment, inst)
        if isinstance(expected, str):
            assert got == expected
            return
        assert got.tolist() == expected.tolist()
        value, schedule = greedy_upper_bound(inst)
        assert _hex(value) == _hex(_reference_machine_loads(schedule).max())

    @given(inst=_small_instances())
    @settings(max_examples=300, deadline=None)
    def test_class_oblivious_list_schedule(self, inst):
        result = class_oblivious_list_schedule(inst)
        assert (result.schedule.assignment.tolist()
                == _reference_class_oblivious_assignment(inst).tolist())
        assert _hex(result.makespan) == _hex(_reference_machine_loads(result.schedule).max())

    @given(inst=_small_instances(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_machine_loads_on_partial_and_ineligible_assignments(self, inst, data):
        # -1 leaves a job unassigned; any machine index, eligible or not.
        assignment = data.draw(_fixed_lists(st.integers(-1, inst.num_machines - 1),
                                            inst.num_jobs))
        schedule = Schedule(inst, assignment)
        expected = _reference_machine_loads(schedule)
        assert _hex(schedule.machine_loads()) == _hex(expected)
        assert _hex(schedule.makespan()) == _hex(expected.max())
