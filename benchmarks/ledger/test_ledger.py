"""Self-test of the ledger harness, on the tiny ``--smoke`` sizing.

    PYTHONPATH=src python -m pytest benchmarks/ledger

Not part of tier-1 (``testpaths`` stays ``tests``).  It checks the
harness, not the program: that the span arithmetic closes, that every
metric ``BENCHMARK.json`` names is emitted with its unit, that the seed
reaches the inputs, and that a damaged output is counted as a failure.
"""

from __future__ import annotations

import json
import os

import numpy
import pytest

import compare
import metrics
import run
import trace as ledger_trace
from workloads import NullRecorder, Tally, build_workloads

SMOKE_SECONDS = 1.0


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def traced():
    return run.run_one("table2_4k", 1999, SMOKE_SECONDS, traced=True,
                       smoke=True)


@pytest.fixture(scope="module")
def untraced():
    return run.run_one("table2_4k", 1999, SMOKE_SECONDS, traced=False,
                       smoke=True)


def test_self_times_of_known_spans(tmp_path):
    recorder = ledger_trace.SpanRecorder()
    outer = recorder.function_id("a", "outer")
    inner = recorder.function_id("b", "inner")
    recorder.current_iteration = 0
    first = recorder.begin(outer)
    for _ in range(3):
        recorder.finish(recorder.begin(inner))
    recorder.finish(first)
    recorder.current_iteration = ledger_trace.OUTSIDE
    recorder.finish(recorder.begin(inner))   # not part of iteration 0
    summary = recorder.summary([0])
    assert summary.count("a", "outer") == 1
    assert summary.count("b", "inner") == 3
    total = summary.layer_self_s("a") + summary.layer_self_s("b")
    assert total == pytest.approx(summary.root_s, rel=1e-9)
    assert summary.inclusive("a", "outer") == pytest.approx(summary.root_s)
    recorder.dump(str(tmp_path / "spans.npz"))
    with numpy.load(str(tmp_path / "spans.npz")) as spans:
        assert list(spans["functions"]) == ["a:outer", "b:inner"]
        assert list(spans["parent"]) == [-1, 0, 0, 0, -1]
        assert list(spans["iteration"]) == [0, 0, 0, 0, ledger_trace.OUTSIDE]


def test_install_is_undone():
    from repro.backup import verify
    from repro.wafl.filesystem import WaflFilesystem

    before = (WaflFilesystem.__dict__["mount"], verify.verify_trees)
    patches = ledger_trace.install(ledger_trace.SpanRecorder())
    assert WaflFilesystem.__dict__["mount"] is not before[0]
    ledger_trace.uninstall(patches)
    assert (WaflFilesystem.__dict__["mount"], verify.verify_trees) == before


def test_layer_self_times_sum_to_the_iteration(traced):
    values = {name: entry["value"]
              for name, entry in traced["metrics"].items()}
    layers = sum(values["%s.self_s" % layer] for layer in metrics.ALL_LAYERS)
    assert layers == pytest.approx(traced["root_s"], rel=0.01)
    # The wrappers sit inside the timed region, so the traced iteration
    # the runner timed is the root span plus one span's bookkeeping.
    assert traced["root_s"] == pytest.approx(values["bench.iter_s"], rel=0.25)
    assert values["bench.root_frac"] <= 0.10
    assert values["storage.persist.calls"] == 0
    assert values["raid.calls"] > 0
    assert traced["failed"] == 0 and traced["attempted"] > 0


def test_benchmark_json_matches_the_definitions(benchmark_json):
    assert benchmark_json["end_to_end"] == metrics.END_TO_END
    assert benchmark_json["per_layer"] == metrics.per_layer_definitions()
    assert ([w["name"] for w in benchmark_json["workloads"]]
            == list(build_workloads()))
    assert benchmark_json["paths"] == ["benchmarks/ledger"]
    assert len(benchmark_json["per_layer"]) <= 128


@pytest.mark.parametrize("section, fixture", [("end_to_end", "untraced"),
                                              ("per_layer", "traced")])
def test_every_named_metric_is_emitted_with_its_unit(
        benchmark_json, section, fixture, request):
    result = request.getfixturevalue(fixture)
    line = json.loads(run.contract_line(result))
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["attempted"] >= 1
    expected = {definition["name"]: definition["unit"]
                for definition in benchmark_json[section]}
    assert {name: entry["unit"]
            for name, entry in line["metrics"].items()} == expected
    if section == "end_to_end":
        assert all(entry["value"] > 0 for entry in line["metrics"].values())


@pytest.mark.parametrize("name", list(build_workloads()))
def test_the_seed_changes_the_inputs(name, tmp_path):
    workload = build_workloads(smoke=True)[name]
    digests = []
    for seed in (1999, 7, 1999):
        state = workload.setup(seed, str(tmp_path / ("%s-%d-%d" % (
            name, seed, len(digests)))), NullRecorder())
        digests.append(workload.input_digest(state))
    assert digests[0] == digests[2]
    assert digests[0] != digests[1]


def test_a_flipped_byte_in_a_restored_volume_is_a_failure(tmp_path):
    workload = build_workloads(smoke=True)["table2_4k"]
    state = workload.setup(1999, str(tmp_path), NullRecorder())
    outcome = workload.iterate(state, NullRecorder())
    clean = Tally()
    workload.check(state, outcome, clean)
    assert clean.failed == 0 and clean.attempted == 4
    _label, restored = outcome.volumes[0]
    disk = restored.volume.groups[0].data_disks[0]
    block, contents = next(iter(disk.nonzero_blocks()))
    disk.write_block(block, bytes([contents[0] ^ 0xFF]) + contents[1:])
    damaged = Tally()
    workload.check(state, outcome, damaged)
    assert damaged.failed > 0
    assert damaged.failed / damaged.attempted > 0


def test_compare_verdicts():
    def entry(value, q1=None, q3=None):
        return {"value": value, "q1": q1 or value, "q3": q3 or value}

    assert compare.verdict(entry(1.0), entry(1.05), "lower", 0.1) == "ok"
    assert compare.verdict(entry(1.0), entry(1.5), "lower", 0.1) == "worse"
    assert compare.verdict(entry(1.0), entry(0.5), "higher", 0.1) == "worse"
    assert compare.verdict(entry(1.0), entry(0.5), "lower", 0.1) == "ok"
    # Worse by more than the bound, but the quartile ranges overlap.
    assert compare.verdict(entry(1.0, 0.8, 1.3), entry(1.2, 1.0, 1.4),
                           "lower", 0.1) == "unresolved"
    # Within the bound, but each run's own spread is wider than it.
    assert compare.verdict(entry(1.0, 0.8, 1.3), entry(1.02, 0.9, 1.2),
                           "lower", 0.1) == "unresolved"
