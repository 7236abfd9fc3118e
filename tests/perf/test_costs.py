"""Cost model and hardware profile tests (the calibration contract)."""

import pytest

from repro.perf.costs import CostModel, HardwareProfile, f630_profile
from repro.units import MB


class TestCostModel:
    def test_paper_cpu_ratios_encoded(self):
        """The calibration must preserve Table 3's CPU relationships."""
        costs = CostModel()
        # "Logical dump consumes 5 times the CPU resources of its
        # physical counterpart" (per block moved).
        assert costs.dump_data_block / costs.image_dump_block > 3.5
        # "Logical restore consumes more than 3 times the CPU that
        # physical restore does."
        logical_restore = costs.restore_data_block + costs.restore_nvram_block
        assert logical_restore / costs.image_restore_block > 3.0

    def test_snapshot_stage_constants(self):
        costs = CostModel()
        assert costs.snapshot_create_seconds == pytest.approx(30.0)
        assert costs.snapshot_delete_seconds == pytest.approx(35.0)
        assert costs.snapshot_create_cpu == pytest.approx(0.5)

    def test_costs_are_mutable_for_ablations(self):
        costs = CostModel()
        costs.restore_nvram_block = 0.0
        assert costs.restore_nvram_block == 0.0


class TestHardwareProfile:
    def test_default_matches_f630(self):
        profile = f630_profile()
        assert profile.cpu_count == 1
        # DLT-7000-class streaming rate.
        assert 8 * MB < profile.tape_rate < 11 * MB

    def test_disk_model_for_group(self):
        profile = HardwareProfile()
        model = profile.disk_model_for_group(10, 4096)
        assert model.ndisks == 10
        assert model.stream_rate == pytest.approx(10 * profile.per_disk_stream)

    def test_tape_model_carries_parameters(self):
        profile = HardwareProfile(tape_rate=5 * MB, tape_change_time=30.0)
        model = profile.tape_model()
        assert model.rate == 5 * MB
        assert model.change_time == 30.0

    def test_single_drive_throughput_band(self):
        """The effective single-drive rate must sit in the paper's band
        (8.4-9.1 MB/s effective for streaming image dump)."""
        profile = f630_profile()
        model = profile.tape_model()
        nbytes = 64 * MB
        seconds = model.transfer_time(nbytes)
        effective = nbytes / MB / seconds
        assert 8.2 < effective < 9.6
