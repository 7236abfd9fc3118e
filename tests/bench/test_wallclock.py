"""The wall-clock regression gate's arithmetic.

``BENCH_wallclock.json`` records calibration-normalized timings from the
machine that produced it.  The gate itself — ``run_harness("smoke")``
against that file at 20 % — is CI's "Smoke benchmarks with wall-clock
regression gate" step, on a machine nothing else is loading; here only
the comparison, the normalization and the baseline merge are tested.
"""

import copy
import json

import pytest

from repro.bench import wallclock


def test_calibration_is_positive():
    assert wallclock.calibrate(repeats=1) > 0


def test_check_regression_flags_slowdown():
    baseline = {
        "calibration_seconds": 1.0,
        "benchmarks": {"micro.x": {"seconds": 1.0}},
    }
    same = {"calibration_seconds": 1.0,
            "benchmarks": {"micro.x": {"seconds": 1.1}}}
    slow = {"calibration_seconds": 1.0,
            "benchmarks": {"micro.x": {"seconds": 2.0}}}
    # A twice-as-fast machine is not a regression even at 1.5x the seconds.
    fast_machine = {"calibration_seconds": 2.0,
                    "benchmarks": {"micro.x": {"seconds": 1.5}}}
    assert wallclock.check_regression(same, baseline, tolerance=0.2) == []
    assert len(wallclock.check_regression(slow, baseline, tolerance=0.2)) == 1
    assert wallclock.check_regression(fast_machine, baseline,
                                      tolerance=0.2) == []
    # A row measured between its own probes is normalized by those: the
    # machine slowed down after the report-level probe was taken.
    drifted = {"calibration_seconds": 1.0,
               "benchmarks": {"micro.x": {"seconds": 2.0,
                                          "calibration_seconds": 2.0}}}
    assert wallclock.check_regression(drifted, baseline, tolerance=0.2) == []


def _committed_baseline():
    with open(wallclock.default_baseline_path()) as handle:
        return json.load(handle)


def test_committed_baseline_has_exactly_the_keys_the_harness_produces():
    """``check_regression`` skips a key only one side has, so a retired
    or renamed benchmark would leave a baseline entry nothing checks."""
    produced = {name for mode in wallclock.MODES
                for name in wallclock.benchmark_names(mode)}
    assert set(_committed_baseline()["benchmarks"]) == produced


def test_slower_fleet_hot_path_fails_the_regression_check():
    """The warm fleet rate is gated like every other key: against its own
    committed entry, not as a ratio to another benchmark's."""
    baseline = _committed_baseline()
    report = copy.deepcopy(baseline)
    report["benchmarks"]["macro.fleet.hotpath"]["seconds"] *= 1.3
    failures = wallclock.check_regression(report, baseline, tolerance=0.2)
    assert len(failures) == 1
    assert failures[0].startswith("macro.fleet.hotpath: 1.30x slower")


def test_check_without_a_readable_baseline_fails_before_running(
        tmp_path, capsys, monkeypatch):
    """A non-editable install has no ``BENCH_wallclock.json`` to find;
    ``--check`` there is an error, not a pass with nothing compared."""
    monkeypatch.setattr(wallclock, "run_harness", lambda **_kwargs: pytest.fail(
        "benchmarks ran although the baseline is unreadable"))
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    for path in (tmp_path / "missing.json", garbled):
        assert wallclock.main(["--check", "--baseline", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "wallclock: error: --check cannot read baseline %s: " % path)
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("cores, exit_code", [(2, 0), (4, 1)])
def test_speedup_gate_is_skipped_below_the_cores_it_needs(
        cores, exit_code, capsys, monkeypatch):
    """``--jobs 4`` cannot run four times as wide on two cores: there the
    gate reports the speed-up and how many cores it needs instead of
    failing; with the cores present a slow grid still fails."""
    monkeypatch.setattr(wallclock, "run_harness", lambda **_kwargs: {
        "mode": "smoke", "calibration_seconds": 1.0,
        "benchmarks": {wallclock.SERIAL_GRID: {"seconds": 1.0}}})
    monkeypatch.setattr(wallclock, "bench_parallel_run_all",
                        lambda jobs: {"seconds": 1.1})
    monkeypatch.setattr(wallclock.os, "cpu_count", lambda: cores)
    assert wallclock.main(["--jobs", "4", "--min-speedup", "2.0"]) == exit_code
    out = capsys.readouterr().out
    assert "speedup at --jobs 4: 0.91x" in out
    assert ("speedup gate skipped: needs 4 cores, has 2" in out) == (cores == 2)


def test_merge_baseline_rescales_new_entries_to_the_baseline_calibration():
    """A key merged in later was measured under another calibration; it
    must land normalized by the one ``calibration_seconds`` the file
    keeps, or every later check of it is off by the machines' ratio."""
    existing = {
        "schema": 1, "mode": "full", "calibration_seconds": 0.5,
        "benchmarks": {"micro.x": {"seconds": 1.0, "rate": 10.0}},
    }
    report = {
        "schema": 1, "mode": "fullscale",
        "calibration_seconds": 1.0,  # a half-speed machine
        "benchmarks": {
            "micro.x": {"seconds": 9.0, "rate": 1.0},
            "macro.y": {"seconds": 4.0, "rate": 25.0, "unit": "MB/s",
                        "peak_rss_bytes": 123},
            # Measured while the machine ran at half the report's speed.
            "macro.z": {"seconds": 2.0, "calibration_seconds": 2.0},
        },
    }
    merged = wallclock.merge_baseline(existing, report)
    assert merged["calibration_seconds"] == 0.5
    assert merged["mode"] == "full"
    assert merged["benchmarks"]["micro.x"] == {"seconds": 1.0, "rate": 10.0}
    assert merged["benchmarks"]["macro.y"] == {
        "seconds": 2.0, "rate": 50.0, "unit": "MB/s", "peak_rss_bytes": 123}
    assert merged["benchmarks"]["macro.z"] == {"seconds": 0.5}
    assert report["benchmarks"]["macro.y"]["seconds"] == 4.0  # not mutated
    # The machine that produced the report checks clean on the keys it
    # added; only the entry that really is slower is flagged.
    assert wallclock.check_regression(report, merged, tolerance=0.0) \
        == ["micro.x: 4.50x slower than baseline (9.000s vs 2.000s"
            " calibration-normalized, tolerance 0%)"]
    # With no baseline calibration the report's is adopted unscaled.
    fresh = wallclock.merge_baseline({}, report)
    assert fresh["calibration_seconds"] == 1.0
    assert fresh["benchmarks"] == dict(report["benchmarks"],
                                       **{"macro.z": {"seconds": 1.0}})


def test_null_observability_overhead_gate():
    """A disabled gate check must cost <= 3% of the cheapest guarded op.

    ``bench_obs_null`` measures both sides within one process, so machine
    speed cancels; take the best of three to shrug off scheduler noise.
    """
    best = min((wallclock.bench_obs_null() for _ in range(3)),
               key=lambda entry: entry["overhead_fraction"])
    assert best["overhead_fraction"] <= 0.03, best
