"""Dump-level schedules and the policy/schedule parsers."""

from __future__ import annotations

import pytest

from repro.errors import CatalogError
from repro.manager import (
    GFS,
    RecoveryWindow,
    Redundancy,
    TowerOfHanoi,
    parse_policy,
    parse_schedule,
)


class TestGFS:
    def test_default_cycle_shape(self):
        schedule = GFS()  # 7x4
        levels = [schedule.level_for(day) for day in range(28)]
        assert levels[0] == 0
        assert levels[7] == levels[14] == levels[21] == 1
        assert all(levels[d] == 2 for d in range(28)
                   if d % 7 != 0)
        assert schedule.level_for(28) == 0  # next cycle's full

    def test_compact_cycle(self):
        schedule = GFS(days_per_week=4, weeks_per_cycle=2)
        assert [schedule.level_for(day) for day in range(9)] \
            == [0, 2, 2, 2, 1, 2, 2, 2, 0]

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(CatalogError):
            GFS(days_per_week=0)
        with pytest.raises(CatalogError):
            GFS(weeks_per_cycle=0)


class TestTowerOfHanoi:
    def test_ruler_sequence(self):
        schedule = TowerOfHanoi(levels=3)
        assert [schedule.level_for(day) for day in range(9)] \
            == [0, 3, 2, 3, 1, 3, 2, 3, 0]

    def test_every_day_has_a_shallower_earlier_dump(self):
        """Any day's restore chain can always find a lower level behind it."""
        schedule = TowerOfHanoi(levels=4)
        levels = [schedule.level_for(day) for day in range(32)]
        for day in range(1, 32):
            if levels[day] == 0:
                continue  # a full needs no base
            assert any(levels[prev] < levels[day] for prev in range(day))

    def test_level_bounds(self):
        with pytest.raises(CatalogError):
            TowerOfHanoi(levels=0)
        with pytest.raises(CatalogError):
            TowerOfHanoi(levels=10)


class TestParsers:
    def test_parse_schedule_forms(self):
        assert isinstance(parse_schedule("gfs"), GFS)
        compact = parse_schedule("GFS:4x2")
        assert (compact.days_per_week, compact.weeks_per_cycle) == (4, 2)
        assert isinstance(parse_schedule("hanoi"), TowerOfHanoi)
        assert parse_schedule("hanoi:5").levels == 5

    def test_parse_schedule_rejects_garbage(self):
        for text in ("weekly", "gfs:x", "hanoi:"):
            with pytest.raises(CatalogError):
                parse_schedule(text)

    def test_parse_policy_forms(self):
        assert parse_policy("redundancy 3").count == 3
        assert parse_policy("window 7").days == 7
        assert parse_policy("window 7 days").days == 7
        assert parse_policy("recovery window of 14 days").days == 14

    def test_parse_policy_rejects_garbage(self):
        for text in ("keep everything", "redundancy", "window"):
            with pytest.raises(CatalogError):
                parse_policy(text)

    def test_policy_constructor_bounds(self):
        with pytest.raises(CatalogError):
            Redundancy(0)
        with pytest.raises(CatalogError):
            RecoveryWindow(-1)
