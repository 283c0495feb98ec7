"""Tests for Schedule load accounting and validation."""

import io
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import Instance
from repro.core.schedule import UNASSIGNED, Schedule
from repro.generators import uniform_instance, unrelated_instance


class TestAssignment:
    def test_initially_unassigned(self, tiny_uniform):
        schedule = Schedule(tiny_uniform)
        assert not schedule.is_complete
        assert schedule.unassigned_jobs().tolist() == [0, 1, 2, 3, 4]

    def test_assign_and_query(self, tiny_uniform):
        schedule = Schedule(tiny_uniform)
        schedule.assign(0, 1)
        assert schedule.machine_of(0) == 1
        assert schedule.jobs_on(1).tolist() == [0]
        schedule.unassign(0)
        assert schedule.machine_of(0) == UNASSIGNED

    def test_assign_many(self, tiny_uniform):
        schedule = Schedule(tiny_uniform)
        schedule.assign_many([0, 2, 4], 0)
        assert schedule.jobs_on(0).tolist() == [0, 2, 4]

    def test_invalid_machine_rejected(self, tiny_uniform):
        schedule = Schedule(tiny_uniform)
        with pytest.raises(ValueError):
            schedule.assign(0, 5)

    def test_copy_is_independent(self, tiny_uniform):
        schedule = Schedule(tiny_uniform)
        schedule.assign(0, 0)
        clone = schedule.copy()
        clone.assign(0, 1)
        assert schedule.machine_of(0) == 0


class TestPickle:
    """A schedule pickles its assignment as raw ``int`` bytes."""

    @pytest.mark.parametrize("n", [0, 7, 2000])
    def test_roundtrip_restores_a_writable_int_array(self, n):
        inst = uniform_instance(n, 3, 1, seed=n)
        schedule = Schedule(inst, np.arange(n) % 3)
        schedule.assignment[1::2] = UNASSIGNED  # partly unassigned
        restored = pickle.loads(pickle.dumps(schedule, pickle.HIGHEST_PROTOCOL))
        assert restored.assignment.dtype == Schedule(inst).assignment.dtype
        assert restored.assignment.flags.writeable
        assert restored.assignment.tolist() == schedule.assignment.tolist()
        assert restored.instance == inst
        if n:
            restored.assign(0, 2)
            assert schedule.machine_of(0) == 0

    def test_payload_holds_raw_bytes_not_an_array(self, tiny_uniform):
        """With its instance left out (as the store does), a pickled
        schedule is the raw bytes and its restore function: no array."""
        schedule = Schedule(tiny_uniform, [0, 1, 0, 1, 1])
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
        pickler.persistent_id = lambda obj: "instance" if obj is tiny_uniform else None
        pickler.dump(schedule)
        assert schedule.assignment.tobytes() in buffer.getvalue()
        assert b"numpy" not in buffer.getvalue()


class TestLoads:
    def test_hand_computed_loads(self, tiny_uniform):
        # Machine 0 (speed 1): jobs 0 (class 0, size 4) and 2 (class 1, size 2)
        #   load = 4 + 2 + setup(4) + setup(6) = 16
        # Machine 1 (speed 2): jobs 1 (size 6), 3 (8), 4 (5) classes {0,1}
        #   load = (6+8+5)/2 + (4+6)/2 = 9.5 + 5 = 14.5
        schedule = Schedule(tiny_uniform, [0, 1, 0, 1, 1])
        assert schedule.load(0) == pytest.approx(16.0)
        assert schedule.load(1) == pytest.approx(14.5)
        assert schedule.makespan() == pytest.approx(16.0)

    def test_setup_charged_once_per_class(self, tiny_uniform):
        schedule = Schedule(tiny_uniform, [0, 0, 0, 0, 0])
        # All jobs on machine 0: sizes 4+6+2+8+5 = 25, setups 4+6 = 10.
        assert schedule.load(0) == pytest.approx(35.0)
        assert schedule.setup_load(0) == pytest.approx(10.0)
        assert schedule.num_setups() == 2

    def test_vectorised_loads_match_per_machine(self, small_uniform):
        rng = np.random.default_rng(0)
        assignment = rng.integers(0, small_uniform.num_machines, size=small_uniform.num_jobs)
        schedule = Schedule(small_uniform, assignment)
        loads = schedule.machine_loads()
        for i in range(small_uniform.num_machines):
            assert loads[i] == pytest.approx(schedule.load(i))
        assert schedule.makespan() == pytest.approx(loads.max())

    def test_empty_machine_has_zero_load(self, tiny_uniform):
        schedule = Schedule(tiny_uniform, [0, 0, 0, 0, 0])
        assert schedule.load(1) == 0.0

    def test_ineligible_assignment_gives_infinite_load(self, tiny_unrelated):
        schedule = Schedule(tiny_unrelated, [0, 0, 0, 0])  # job 3 ineligible on machine 0
        assert np.isinf(schedule.makespan())

    def test_partial_schedule_loads_ignore_unassigned(self, tiny_uniform):
        schedule = Schedule(tiny_uniform)
        schedule.assign(0, 0)
        assert schedule.load(0) == pytest.approx(4.0 + 4.0)
        assert schedule.machine_loads().sum() == pytest.approx(8.0)


class TestValidation:
    def test_complete_valid_schedule(self, tiny_uniform):
        schedule = Schedule(tiny_uniform, [0, 1, 0, 1, 1])
        assert schedule.validate() == []
        schedule.assert_valid()

    def test_incomplete_schedule_reported(self, tiny_uniform):
        schedule = Schedule(tiny_uniform)
        problems = schedule.validate()
        assert len(problems) == 5
        assert schedule.validate(require_complete=False) == []

    def test_ineligible_assignment_reported(self, tiny_unrelated):
        schedule = Schedule(tiny_unrelated, [0, 0, 0, 0])
        problems = schedule.validate()
        assert any("ineligible" in p for p in problems)
        with pytest.raises(ValueError):
            schedule.assert_valid()

    def test_serialisation_roundtrip(self, tiny_uniform):
        schedule = Schedule(tiny_uniform, [0, 1, 0, 1, 1])
        rebuilt = Schedule.from_dict(tiny_uniform, schedule.to_dict())
        assert np.array_equal(rebuilt.assignment, schedule.assignment)

    def test_summary_mentions_makespan(self, tiny_uniform):
        schedule = Schedule(tiny_uniform, [0, 1, 0, 1, 1])
        assert "makespan" in schedule.summary()


class TestScheduleProperties:
    """Property-based invariants of the load accounting."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_total_load_invariant_uniform(self, seed):
        """Sum of machine work (load·speed) equals total size plus charged setups."""
        inst = uniform_instance(12, 3, 3, seed=seed, integral=True)
        rng = np.random.default_rng(seed + 1)
        assignment = rng.integers(0, inst.num_machines, size=inst.num_jobs)
        schedule = Schedule(inst, assignment)
        work = (schedule.machine_loads() * inst.speeds).sum()
        expected = inst.job_sizes.sum()
        expected += sum(inst.setup_sizes[k]
                        for i in range(inst.num_machines)
                        for k in schedule.classes_on(i))
        assert work == pytest.approx(expected, rel=1e-9)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_makespan_monotone_under_job_removal(self, seed):
        """Removing a job from a machine never increases that machine's load."""
        inst = unrelated_instance(10, 3, 3, seed=seed)
        rng = np.random.default_rng(seed + 1)
        assignment = rng.integers(0, inst.num_machines, size=inst.num_jobs)
        schedule = Schedule(inst, assignment)
        j = int(rng.integers(0, inst.num_jobs))
        machine = schedule.machine_of(j)
        before = schedule.load(machine)
        schedule.unassign(j)
        after = schedule.load(machine)
        assert after <= before + 1e-9

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_num_setups_bounds(self, seed):
        inst = uniform_instance(12, 3, 4, seed=seed)
        rng = np.random.default_rng(seed)
        schedule = Schedule(inst, rng.integers(0, inst.num_machines, size=inst.num_jobs))
        setups = schedule.num_setups()
        assert len(inst.classes_present()) <= setups <= inst.num_machines * inst.num_classes
