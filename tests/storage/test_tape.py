"""Unit tests for the tape subsystem."""

import pytest

from repro.errors import TapeError
from repro.storage.tape import TapeCartridge, TapeDrive, TapeModel, TapeStacker
from repro.units import KB, MB


def make_drive(tapes=3, capacity=1 * MB):
    return TapeDrive(TapeStacker.with_blank_tapes(tapes, capacity=capacity,
                                                  name="t"))


class TestCartridge:
    def test_append_and_capacity(self):
        cartridge = TapeCartridge(capacity=100)
        cartridge.append(b"x" * 60)
        assert cartridge.used == 60
        assert cartridge.remaining == 40
        with pytest.raises(TapeError):
            cartridge.append(b"y" * 41)

    def test_write_protection(self):
        cartridge = TapeCartridge(capacity=100)
        cartridge.write_protected = True
        with pytest.raises(TapeError):
            cartridge.append(b"z")
        with pytest.raises(TapeError):
            cartridge.erase()


class TestDrive:
    def test_write_read_roundtrip(self):
        drive = make_drive()
        drive.write(b"hello tape world")
        drive.rewind()
        assert drive.read(16) == b"hello tape world"

    def test_write_spans_cartridges(self):
        drive = make_drive(tapes=3, capacity=100)
        payload = bytes(range(250)) * 1  # 250 bytes over 100-byte tapes
        drive.write(payload)
        assert drive.stacker.cartridges[0].used == 100
        assert drive.stacker.cartridges[1].used == 100
        assert drive.stacker.cartridges[2].used == 50
        drive.rewind()
        assert drive.read(250) == payload

    def test_first_load_is_not_a_media_change(self):
        drive = make_drive(tapes=3, capacity=100)
        drive.write(b"a" * 50)
        assert drive.media_changes == 0
        drive.write(b"b" * 100)  # spills onto cartridge 2
        assert drive.media_changes == 1

    def test_out_of_cartridges(self):
        drive = make_drive(tapes=1, capacity=10)
        with pytest.raises(TapeError):
            drive.write(b"x" * 11)

    def test_read_past_end(self):
        drive = make_drive()
        drive.write(b"abc")
        drive.rewind()
        with pytest.raises(TapeError):
            drive.read(4)

    def test_stream_bytes_concatenates(self):
        drive = make_drive(tapes=2, capacity=4)
        drive.write(b"abcdefg")
        assert drive.stream_bytes() == b"abcdefg"
        assert drive.stream_length() == 7

    def test_rewind_allows_reread(self):
        drive = make_drive()
        drive.write(b"12345678")
        drive.rewind()
        assert drive.read(4) == b"1234"
        drive.rewind()
        assert drive.read(8) == b"12345678"


class TestTapeModel:
    def test_streaming_rate(self):
        model = TapeModel(rate=10 * MB, record_gap=0.0)
        assert model.transfer_time(10 * MB) == pytest.approx(1.0)

    def test_record_gaps_charged(self):
        model = TapeModel(rate=10 * MB, record_size=64 * KB, record_gap=0.001)
        t = model.transfer_time(128 * KB)
        assert t == pytest.approx(128 * KB / (10 * MB) + 2 * 0.001)

    def test_media_change_charged(self):
        model = TapeModel(rate=10 * MB, change_time=60.0, record_gap=0.0)
        assert model.transfer_time(0, media_changes=1) >= 60.0

    def test_restart_penalty_on_write_gap(self):
        model = TapeModel(rate=10 * MB, record_gap=0.0,
                          restart_penalty=0.5, restart_idle=0.01)
        model.transfer_time(1 * MB, now=0.0, writing=True)
        # Next write starts long after the previous finished: restart.
        busy = model.transfer_time(1 * MB, now=10.0, writing=True)
        assert busy == pytest.approx(0.1 + 0.5)

    def test_no_restart_when_streaming(self):
        model = TapeModel(rate=10 * MB, record_gap=0.0,
                          restart_penalty=0.5, restart_idle=0.01)
        t0 = model.transfer_time(1 * MB, now=0.0, writing=True)
        busy = model.transfer_time(1 * MB, now=t0, writing=True)
        assert busy == pytest.approx(0.1)

    def test_no_restart_for_reads(self):
        model = TapeModel(rate=10 * MB, record_gap=0.0,
                          restart_penalty=0.5, restart_idle=0.01)
        model.transfer_time(1 * MB, now=0.0, writing=False)
        busy = model.transfer_time(1 * MB, now=100.0, writing=False)
        assert busy == pytest.approx(0.1)

    def test_negative_transfer_rejected(self):
        model = TapeModel()
        with pytest.raises(TapeError):
            model.transfer_time(-1)
