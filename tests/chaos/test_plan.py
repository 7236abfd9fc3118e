"""The injection plan: a pure function of (seed, rate, kinds)."""

from __future__ import annotations

import pytest

from repro.chaos import FAULT_KINDS, TAPE_FAULTS, ChaosPlan, FaultSpec
from repro.chaos.plan import (
    KIND_CORRUPT,
    KIND_CRASH,
    KIND_DISK_FAIL,
    KIND_EJECT,
    KIND_KILL,
    KIND_TORN_CP,
)
from repro.errors import ReproError

DAYS, VOLUMES = 30, 4


def schedule(plan):
    return [f.to_dict() for f in plan.faults_for_campaign(DAYS, VOLUMES)]


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        first = schedule(ChaosPlan(7))
        second = schedule(ChaosPlan(7))
        assert first and first == second

    def test_different_seeds_differ(self):
        assert schedule(ChaosPlan(7)) != schedule(ChaosPlan(8))

    def test_repeated_queries_are_stable(self):
        plan = ChaosPlan(11)
        for day in range(DAYS):
            for index in range(VOLUMES):
                first = plan.fault_for(day, index)
                second = plan.fault_for(day, index)
                if first is None:
                    assert second is None
                else:
                    assert first.to_dict() == second.to_dict()

    def test_cells_are_independent(self):
        # Growing the grid never perturbs previously planned cells.
        small = ChaosPlan(13).faults_for_campaign(5, 2)
        large = ChaosPlan(13).faults_for_campaign(10, 3)
        large_by_id = {f.fault_id: f.to_dict() for f in large}
        for fault in small:
            assert large_by_id[fault.fault_id] == fault.to_dict()

    def test_day_zero_is_exempt(self):
        plan = ChaosPlan(3, rate=1.0)
        assert all(plan.fault_for(0, index) is None for index in range(8))
        assert plan.fault_for(1, 0) is not None

    def test_disabled_plan_never_fires(self):
        plan = ChaosPlan(3, rate=1.0, enabled=False)
        assert plan.faults_for_campaign(DAYS, VOLUMES) == []

    def test_rate_bounds(self):
        assert ChaosPlan(5, rate=0.0).faults_for_campaign(DAYS, VOLUMES) == []
        dense = ChaosPlan(5, rate=1.0).faults_for_campaign(DAYS, VOLUMES)
        assert len(dense) == (DAYS - 1) * VOLUMES  # every cell but day 0

    def test_kind_restriction(self):
        plan = ChaosPlan(9, rate=1.0, kinds=(KIND_CRASH, KIND_DISK_FAIL))
        kinds = {f.kind for f in plan.faults_for_campaign(DAYS, VOLUMES)}
        assert kinds <= {KIND_CRASH, KIND_DISK_FAIL}

    def test_all_kinds_eventually_drawn(self):
        plan = ChaosPlan(9, rate=1.0)
        kinds = {f.kind for f in plan.faults_for_campaign(60, 4)}
        assert kinds == set(FAULT_KINDS)


class TestParams:
    def kinds_of(self, seed):
        return {f.kind: f for f in
                ChaosPlan(seed, rate=1.0).faults_for_campaign(60, 4)}

    def test_every_kind_has_wellformed_params(self):
        by_kind = self.kinds_of(21)
        assert by_kind[KIND_KILL].params["after_tape_ops"] >= 1
        assert by_kind[KIND_CORRUPT].params["after_tape_ops"] >= 2
        assert 1 <= by_kind[KIND_CORRUPT].params["xor"] <= 255
        assert 0.0 <= by_kind[KIND_CORRUPT].params["offset_frac"] < 1.0
        assert by_kind[KIND_EJECT].params["after_tape_ops"] >= 2
        draws = by_kind[KIND_DISK_FAIL].params["draws"]
        assert len(draws) == by_kind[KIND_DISK_FAIL].params["nblocks"]
        assert all(0.0 <= frac < 1.0
                   for draw in draws for frac in draw)
        assert by_kind[KIND_TORN_CP].params["fuse_blocks"] >= 1
        assert by_kind[KIND_CRASH].params == {}

    def test_tape_faults_subset(self):
        assert set(TAPE_FAULTS) == {KIND_KILL, KIND_CORRUPT, KIND_EJECT}
        assert set(TAPE_FAULTS) < set(FAULT_KINDS)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            ChaosPlan(1, kinds=("meteor",))
        with pytest.raises(ReproError):
            FaultSpec("F", 1, 0, "meteor")

    def test_empty_kinds_rejected(self):
        with pytest.raises(ReproError):
            ChaosPlan(1, kinds=())

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ReproError):
            ChaosPlan(1, rate=1.5)
