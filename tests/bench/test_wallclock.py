"""The wall-clock gate's arithmetic, pairing and refusals.

``--check`` times this checkout against the pinned ``REFERENCE`` commit
in alternating pairs of fresh processes; CI's "Smoke benchmarks with
wall-clock regression gate" step runs real pairs.  Here the children are
faked: what is tested is the verdict per row, the order and import path
of the children, and that a gate that cannot measure says so in one line
before anything is timed.
"""

import json
import os
import shutil
import subprocess

import pytest

from repro.bench import wallclock

VERDICT = wallclock.ledger_verdict(wallclock.source_tree())
TIGHT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def _runs(head, reference, name="macro.fleet.hotpath", mode="smoke"):
    """Per-run ``benchmarks`` of both sides: ``name`` takes the given
    seconds, every other row of ``mode`` 1 s."""
    def side(values):
        return [{row: {"seconds": value if row == name else 1.0}
                 for row in wallclock.benchmark_names(mode)}
                for value in values]
    return {"head": side(head), "reference": side(reference)}


@pytest.mark.parametrize("head, verdict", [
    (TIGHT, "ok"),
    ([1.3 * value for value in TIGHT], "worse"),
    # A median 30 % slower, but the quartiles overlap the reference's.
    ([0.8, 0.9, 1.0, 1.2, 1.3, 1.3, 1.4, 1.6, 1.8, 2.0], "unresolved"),
], ids=["ok", "worse", "unresolved"])
def test_a_row_is_judged_by_the_ledger_verdict(head, verdict):
    report, failures = wallclock.judge("smoke", _runs(head, TIGHT), VERDICT)
    row = report["benchmarks"]["macro.fleet.hotpath"]
    assert row["verdict"] == verdict
    assert row["reference"]["value"] == pytest.approx(1.045)
    assert len(failures) == (verdict == "worse")
    others = set(report["benchmarks"]) - {"macro.fleet.hotpath"}
    assert {report["benchmarks"][name]["verdict"] for name in others} == {"ok"}


def test_slower_fleet_hot_path_fails_the_regression_check():
    """30 % slower than the reference in every pair, at a 20 % bound."""
    _report, failures = wallclock.judge(
        "smoke", _runs([1.3 * value for value in TIGHT], TIGHT), VERDICT)
    assert failures == ["macro.fleet.hotpath: median 1.359s against 1.045s,"
                        " over the 20% bound"]


@pytest.mark.parametrize("mode, limit", [("smoke", ""),
                                         ("fullscale", " (limit 0.78 GB)")])
def test_a_check_row_prints_the_peak_rss_it_is_gated_on(mode, limit):
    rows = {"a.row": {"seconds": 1.5, "verdict": "ok",
                      "reference": {"value": 1.25},
                      "peak_rss_bytes": 751_234_567},
            "b.new": {"seconds": 0.5, "verdict": "new",
                      "peak_rss_bytes": 0}}
    lines = wallclock.format_report({"mode": mode,
                                     "benchmarks": rows}).splitlines()
    assert lines[1].endswith("   1.250s  ok  peak RSS 0.751 GB" + limit)
    assert lines[2].endswith("new  peak RSS 0.000 GB" + limit)


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    """A git checkout whose one commit holds ``src/repro``: the harness
    takes it for its own tree and that commit for ``REFERENCE``."""
    root = tmp_path / "checkout"
    (root / "src" / "repro").mkdir(parents=True)
    (root / "src" / "repro" / "__init__.py").write_text("")
    git = ["git", "-C", str(root), "-c", "user.name=bench",
           "-c", "user.email=bench@example.com", "-c", "commit.gpgsign=false"]
    subprocess.run(["git", "init", "-q", str(root)], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "reference"], check=True)
    sha = subprocess.run(git + ["rev-parse", "HEAD"], check=True,
                         stdout=subprocess.PIPE).stdout.decode().strip()
    (root / "benchmarks" / "ledger").mkdir(parents=True)
    shutil.copy(os.path.join(wallclock.source_tree(), "benchmarks", "ledger",
                             "compare.py"), str(root / "benchmarks" / "ledger"))
    monkeypatch.setattr(wallclock, "source_tree", lambda: str(root))
    monkeypatch.setattr(wallclock, "REFERENCE", sha)
    return str(root)


class FakeChildren:
    """Stands in for ``wallclock._run``: answers the import probe with the
    child's own ``src/`` (or ``imports_from``), and writes a report of
    ``seconds`` and ``rss`` to ``--output`` for a timed run."""

    def __init__(self, head, seconds=1.0, rss=1, imports_from=None):
        self.head, self.seconds, self.rss = head, seconds, rss
        self.imports_from = imports_from
        self.calls = []

    def __call__(self, argv, env, cwd):
        side = "head" if cwd == self.head else "reference"
        src = env["PYTHONPATH"]
        assert src == os.path.join(cwd, "src")
        assert os.path.exists(os.path.join(src, "repro", "__init__.py"))
        if argv[1] == "-c":
            self.calls.append(("probe", side))
            return os.path.join(self.imports_from or src, "repro",
                                "__init__.py") + "\n"
        self.calls.append(("run", side))
        mode = argv[argv.index("--mode") + 1]
        seconds = self.seconds if side == "head" else 2.0
        with open(argv[argv.index("--output") + 1], "w") as handle:
            json.dump({"mode": mode, "benchmarks": {
                name: {"seconds": seconds, "peak_rss_bytes": self.rss}
                for name in wallclock.benchmark_names(mode)}}, handle)
        return "report\n"


def test_check_alternates_fresh_children_of_each_tree(checkout, capsys,
                                                      monkeypatch):
    """Both probes first, then ``PAIRS`` pairs, reference first in even
    pairs and head first in odd ones, each child on its own tree's
    ``src/``; the speed-up divides the head side's serial median by the
    ``--jobs`` time."""
    children = FakeChildren(checkout, seconds=1.0)
    monkeypatch.setattr(wallclock, "_run", children)
    monkeypatch.setattr(wallclock, "bench_parallel_run_all",
                        lambda jobs: {"seconds": 0.25})
    monkeypatch.setattr(wallclock.os, "cpu_count", lambda: 4)
    assert wallclock.main(["--check", "--jobs", "4",
                           "--min-speedup", "4.0"]) == 0
    assert children.calls == ([("probe", "reference"), ("probe", "head")]
                              + [("run", "reference"), ("run", "head"),
                                 ("run", "head"), ("run", "reference")]
                              * (wallclock.PAIRS // 2))
    out = capsys.readouterr().out
    assert "speedup at --jobs 4: 4.00x" in out
    assert out.endswith("wall-clock check passed: %d pairs against %s\n"
                        % (wallclock.PAIRS, wallclock.REFERENCE))


@pytest.mark.parametrize("case, reason", [
    ("no-checkout", "needs a git checkout; "),
    ("no-git", "needs a git checkout; cannot run git: "),
    ("unknown-reference", "needs REFERENCE 0000"),
    ("wrong-tree", "imports repro from "),
], ids=["no-checkout", "no-git", "unknown-reference", "wrong-tree"])
def test_check_refuses_in_one_line_before_anything_runs(
        case, reason, checkout, tmp_path, capsys, monkeypatch):
    """No checkout (an installed package), no ``git`` on the path, a
    history without ``REFERENCE`` (a shallow clone), a child importing
    another tree's ``repro`` (a stray install): each would compare nothing, or HEAD
    with itself, so ``--check`` exits 2 before it times anything."""
    children = FakeChildren(checkout, imports_from=(
        str(tmp_path / "elsewhere") if case == "wrong-tree" else None))
    monkeypatch.setattr(wallclock, "_run", children)
    if case == "no-checkout":
        plain = tmp_path / "plain"
        plain.mkdir()
        monkeypatch.setattr(wallclock, "source_tree", lambda: str(plain))
    if case == "no-git":
        monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    if case == "unknown-reference":
        monkeypatch.setattr(wallclock, "REFERENCE", "0" * 40)
    assert wallclock.main(["--check"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("wallclock: error: --check ")
    assert reason in captured.err
    assert captured.err.count("\n") == 1
    assert ("run", "head") not in children.calls
    assert ("run", "reference") not in children.calls


@pytest.mark.parametrize("rss, exit_code", [(750_000_000, 0),
                                            (2_500_000_000, 1)])
def test_full_scale_rss_over_the_limit_fails(rss, exit_code, checkout, capsys,
                                             monkeypatch):
    """An absolute limit: a footprint the reference shares still fails."""
    monkeypatch.setattr(wallclock, "_run", FakeChildren(checkout, rss=rss))
    assert wallclock.main(["--mode", "fullscale", "--check"]) == exit_code
    out = capsys.readouterr().out
    assert ("macro.fullscale.run_basic: peak RSS 2500000000 bytes: missing,"
            " or above the 0.78 GB limit" in out) == bool(exit_code)


@pytest.mark.parametrize("cores, exit_code", [(2, 0), (4, 1)])
def test_speedup_gate_is_skipped_below_the_cores_it_needs(
        cores, exit_code, capsys, monkeypatch):
    """``--jobs 4`` cannot run four times as wide on two cores: there the
    gate reports the speed-up and how many cores it needs instead of
    failing; with the cores present a slow grid still fails."""
    monkeypatch.setattr(wallclock, "run_harness", lambda **_kwargs: {
        "mode": "smoke",
        "benchmarks": {wallclock.SERIAL_GRID: {"seconds": 1.0}}})
    monkeypatch.setattr(wallclock, "bench_parallel_run_all",
                        lambda jobs: {"seconds": 1.1})
    monkeypatch.setattr(wallclock.os, "cpu_count", lambda: cores)
    assert wallclock.main(["--jobs", "4", "--min-speedup", "2.0"]) == exit_code
    out = capsys.readouterr().out
    assert "speedup at --jobs 4: 0.91x" in out
    assert ("speedup gate skipped: needs 4 cores, has 2" in out) == (cores == 2)


def test_null_observability_overhead_gate():
    """A disabled gate check must cost <= 3% of the cheapest guarded op.

    ``bench_obs_null`` measures both sides within one process, so machine
    speed cancels; take the best of three to shrug off scheduler noise.
    """
    best = min((wallclock.bench_obs_null() for _ in range(3)),
               key=lambda entry: entry["overhead_fraction"])
    assert best["overhead_fraction"] <= 0.03, best
