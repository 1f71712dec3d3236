"""Tests for device timelines and schedules."""

import pytest

from repro.schedulers.schedule import Assignment, DeviceTimeline, Schedule
from repro.workflows.generators import montage


class TestAssignment:
    def test_duration(self):
        a = Assignment("t", "d", 1.0, 3.5)
        assert a.duration == 2.5

    def test_reversed_rejected(self):
        with pytest.raises(ValueError):
            Assignment("t", "d", 3.0, 1.0)


class TestDeviceTimeline:
    def test_empty_free_at_zero(self):
        tl = DeviceTimeline("d")
        assert tl.free_at() == 0.0
        assert tl.earliest_fit(2.0, 1.0) == 2.0

    def test_add_and_free_at(self):
        tl = DeviceTimeline("d")
        tl.add(0.0, 2.0, "a")
        assert tl.free_at() == 2.0
        assert len(tl) == 1

    def test_overlap_rejected(self):
        tl = DeviceTimeline("d")
        tl.add(0.0, 2.0, "a")
        with pytest.raises(ValueError):
            tl.add(1.0, 3.0, "b")
        with pytest.raises(ValueError):
            tl.add(-1.0, 0.5, "c")

    def test_touching_intervals_allowed(self):
        tl = DeviceTimeline("d")
        tl.add(0.0, 2.0, "a")
        tl.add(2.0, 4.0, "b")
        assert len(tl) == 2

    def test_insertion_finds_gap(self):
        tl = DeviceTimeline("d")
        tl.add(0.0, 1.0, "a")
        tl.add(5.0, 6.0, "b")
        assert tl.earliest_fit(0.0, 2.0) == 1.0  # fits in [1, 5)

    def test_insertion_respects_ready_time(self):
        tl = DeviceTimeline("d")
        tl.add(0.0, 1.0, "a")
        tl.add(5.0, 6.0, "b")
        assert tl.earliest_fit(3.5, 1.0) == 3.5

    def test_insertion_before_first_interval(self):
        tl = DeviceTimeline("d")
        tl.add(5.0, 6.0, "a")
        assert tl.earliest_fit(0.0, 2.0) == 0.0

    def test_gap_too_small_falls_to_tail(self):
        tl = DeviceTimeline("d")
        tl.add(0.0, 1.0, "a")
        tl.add(2.0, 3.0, "b")
        assert tl.earliest_fit(0.0, 5.0) == 3.0

    def test_no_insertion_mode(self):
        tl = DeviceTimeline("d")
        tl.add(0.0, 1.0, "a")
        tl.add(5.0, 6.0, "b")
        assert tl.earliest_fit(0.0, 1.0, allow_insertion=False) == 6.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            DeviceTimeline("d").earliest_fit(0.0, -1.0)

    def test_busy_time(self):
        tl = DeviceTimeline("d")
        tl.add(0.0, 2.0, "a")
        tl.add(4.0, 5.0, "b")
        assert tl.busy_time() == 3.0

    def test_out_of_order_adds_kept_sorted(self):
        tl = DeviceTimeline("d")
        tl.add(5.0, 6.0, "b")
        tl.add(0.0, 1.0, "a")
        assert [t for _s, _e, t in tl.intervals] == ["a", "b"]


class TestSchedule:
    def test_add_and_lookup(self):
        s = Schedule()
        s.add("t1", "d1", 0.0, 2.0)
        assert s.device_of("t1") == "d1"
        assert s.assignments["t1"].finish == 2.0
        assert s.makespan == 2.0
        assert s.n_tasks == 1

    def test_duplicate_task_rejected(self):
        s = Schedule()
        s.add("t1", "d1", 0.0, 2.0)
        with pytest.raises(ValueError):
            s.add("t1", "d2", 3.0, 4.0)

    def test_empty_makespan_zero(self):
        assert Schedule().makespan == 0.0

    def test_tasks_on_in_start_order(self):
        s = Schedule()
        s.add("late", "d", 5.0, 6.0)
        s.add("early", "d", 0.0, 1.0)
        assert s.tasks_on("d") == ["early", "late"]
        assert s.tasks_on("other") == []

    def test_devices_used(self):
        s = Schedule()
        s.add("a", "d1", 0.0, 1.0)
        assert s.devices_used() == ["d1"]

    def test_validate_against_missing_task(self):
        wf = montage(n_images=3, seed=0)
        s = Schedule()
        with pytest.raises(ValueError, match="misses"):
            s.validate_against(wf)

    def test_validate_against_unknown_task(self):
        wf = montage(n_images=3, seed=0)
        s = Schedule()
        for i, name in enumerate(wf.topological_order()):
            s.add(name, "d", float(i), float(i) + 0.5)
        s2 = Schedule()
        s2.add("ghost", "d", 0.0, 1.0)
        for i, name in enumerate(wf.topological_order()):
            s2.add(name, "d2", float(i), float(i) + 0.5)
        with pytest.raises(ValueError, match="unknown"):
            s2.validate_against(wf)

    def test_validate_against_precedence_violation(self):
        wf = montage(n_images=3, seed=0)
        order = wf.topological_order()
        s = Schedule()
        # schedule the SECOND task before the first finishes
        s.add(order[0], "d", 0.0, 10.0)
        child = wf.successors(order[0])[0]
        s.add(child, "d2", 0.0, 1.0)
        for name in order:
            if name not in s.assignments:
                s.add(name, "d3", 100.0 + len(s.assignments),
                      100.5 + len(s.assignments))
        with pytest.raises(ValueError, match="precedence"):
            s.validate_against(wf)

    def test_summary_mentions_counts(self):
        s = Schedule()
        s.add("a", "d1", 0.0, 1.0)
        assert "1 tasks" in s.summary()
