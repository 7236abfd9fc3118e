"""Utilization tracker tests."""

import pytest

from repro.sim.stats import UtilizationTracker


class TestUtilizationTracker:
    def test_constant_level(self):
        tracker = UtilizationTracker(capacity=1)
        tracker.record(0.0, 1)
        tracker.record(10.0, 0)
        assert tracker.busy_time(0, 10) == pytest.approx(10.0)
        assert tracker.utilization(0, 10) == pytest.approx(1.0)

    def test_partial_window(self):
        tracker = UtilizationTracker(capacity=1)
        tracker.record(2.0, 1)
        tracker.record(6.0, 0)
        assert tracker.busy_time(0, 10) == pytest.approx(4.0)
        assert tracker.busy_time(3, 5) == pytest.approx(2.0)
        assert tracker.utilization(0, 10) == pytest.approx(0.4)

    def test_stepped_levels(self):
        tracker = UtilizationTracker(capacity=2)
        tracker.record(0.0, 1)
        tracker.record(5.0, 2)
        tracker.record(10.0, 0)
        assert tracker.busy_time(0, 10) == pytest.approx(15.0)
        assert tracker.utilization(0, 10) == pytest.approx(0.75)

    def test_same_time_overwrites(self):
        tracker = UtilizationTracker()
        tracker.record(1.0, 1)
        tracker.record(1.0, 0)
        assert tracker.busy_time(0, 2) == pytest.approx(0.0)

    def test_out_of_order_rejected(self):
        tracker = UtilizationTracker()
        tracker.record(5.0, 1)
        with pytest.raises(ValueError):
            tracker.record(4.0, 0)

    def test_empty_window(self):
        tracker = UtilizationTracker()
        assert tracker.busy_time(5, 5) == 0.0
        assert tracker.utilization(5, 4) == 0.0

    def test_tail_extends_to_window_end(self):
        tracker = UtilizationTracker()
        tracker.record(0.0, 1)
        # No closing record: level persists through the query window.
        assert tracker.busy_time(0, 7) == pytest.approx(7.0)
