"""Tests for Garey–Graham list scheduling with fixed allotments."""

import pytest

from repro.core.allotment import Allotment, canonical_allotment
from repro.core.job import TabulatedJob
from repro.core.list_scheduling import list_schedule, list_schedule_bound
from repro.core.validation import assert_valid_schedule
from repro.workloads.generators import random_mixed_instance


def make_rigid(name, duration, size, m):
    """A job that takes `duration` on any processor count (size fixed via allotment)."""
    return TabulatedJob(name, [duration] * m)


class TestListSchedule:
    def test_single_job_uses_requested_processors(self):
        m = 4
        job = make_rigid("a", 5.0, 2, m)
        allot = Allotment({job: 2})
        schedule = list_schedule([job], allot, m)
        entry = schedule.entry_for(job)
        assert entry.processors == 2
        assert entry.start == 0.0

    def test_sequentialises_when_not_enough_machines(self):
        m = 2
        a = make_rigid("a", 5.0, 2, m)
        b = make_rigid("b", 3.0, 2, m)
        allot = Allotment({a: 2, b: 2})
        schedule = list_schedule([a, b], allot, m)
        assert schedule.entry_for(b).start == pytest.approx(5.0)
        assert schedule.makespan == pytest.approx(8.0)

    def test_parallel_when_machines_available(self):
        m = 4
        a = make_rigid("a", 5.0, 2, m)
        b = make_rigid("b", 3.0, 2, m)
        allot = Allotment({a: 2, b: 2})
        schedule = list_schedule([a, b], allot, m)
        assert schedule.entry_for(b).start == 0.0
        assert schedule.makespan == pytest.approx(5.0)

    def test_order_matters(self):
        m = 2
        a = make_rigid("a", 10.0, 1, m)
        b = make_rigid("b", 1.0, 2, m)
        allot = Allotment({a: 1, b: 2})
        forward = list_schedule([a, b], allot, m, order=[a, b])
        backward = list_schedule([a, b], allot, m, order=[b, a])
        assert forward.makespan == pytest.approx(11.0)
        assert backward.makespan == pytest.approx(11.0)
        assert forward.entry_for(b).start == pytest.approx(10.0)
        assert backward.entry_for(b).start == pytest.approx(0.0)

    def test_garey_graham_bound(self):
        """makespan <= 2 * max(W/m, T_max) on random instances."""
        for seed in range(5):
            instance = random_mixed_instance(30, 16, seed=seed)
            allot = canonical_allotment(instance.jobs, 1e9, 16)
            assert allot is not None
            schedule = list_schedule(instance.jobs, allot, 16)
            assert_valid_schedule(schedule, instance.jobs)
            assert schedule.makespan <= list_schedule_bound(allot, 16) * (1 + 1e-9)

    def test_schedules_are_feasible(self):
        instance = random_mixed_instance(40, 8, seed=9)
        allot = canonical_allotment(instance.jobs, 1e9, 8)
        schedule = list_schedule(instance.jobs, allot, 8)
        assert_valid_schedule(schedule, instance.jobs)

    def test_missing_allotment_rejected(self):
        m = 2
        a = make_rigid("a", 1.0, 1, m)
        b = make_rigid("b", 1.0, 1, m)
        with pytest.raises(ValueError):
            list_schedule([a, b], Allotment({a: 1}), m)

    def test_oversized_allotment_rejected(self):
        m = 2
        a = make_rigid("a", 1.0, 1, m)
        with pytest.raises(ValueError):
            list_schedule([a], Allotment({a: 3}), m)

    def test_order_must_be_permutation(self):
        m = 2
        a = make_rigid("a", 1.0, 1, m)
        b = make_rigid("b", 1.0, 1, m)
        with pytest.raises(ValueError):
            list_schedule([a, b], Allotment({a: 1, b: 1}), m, order=[a])

    def test_invalid_m(self):
        a = make_rigid("a", 1.0, 1, 1)
        with pytest.raises(ValueError):
            list_schedule([a], Allotment({a: 1}), 0)

    def test_empty_jobs(self):
        schedule = list_schedule([], Allotment({}), 4)
        assert schedule.makespan == 0.0
