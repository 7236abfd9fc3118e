"""End-to-end tests for the repro-backup CLI."""

import io
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import VERBS, main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_mkfs_and_df(workdir, capsys):
    assert run(["mkfs", "vol.bin", "--groups", 1, "--disks", 4,
                "--blocks", 1500]) == 0
    assert run(["df", "vol.bin"]) == 0
    out = capsys.readouterr().out
    assert "formatted vol.bin" in out
    assert "snapshots: 0" in out


def test_put_get_roundtrip(workdir, capsys):
    run(["mkfs", "vol.bin"])
    source = workdir / "in.txt"
    source.write_bytes(b"cli payload \x00\x01\x02")
    assert run(["put", "vol.bin", source, "/f.txt"]) == 0
    assert run(["get", "vol.bin", "/f.txt", workdir / "out.txt"]) == 0
    assert (workdir / "out.txt").read_bytes() == b"cli payload \x00\x01\x02"


def test_ls_and_rm(workdir, capsys):
    run(["mkfs", "vol.bin"])
    (workdir / "x").write_bytes(b"x")
    run(["put", "vol.bin", workdir / "x", "/x"])
    run(["ls", "vol.bin"])
    assert "/x" in capsys.readouterr().out
    assert run(["rm", "vol.bin", "/x"]) == 0
    capsys.readouterr()
    run(["ls", "vol.bin"])
    assert "/x" not in capsys.readouterr().out


def test_snapshot_lifecycle(workdir, capsys):
    run(["mkfs", "vol.bin"])
    assert run(["snap", "vol.bin", "create", "s1"]) == 0
    run(["snap", "vol.bin", "list"])
    assert "s1" in capsys.readouterr().out
    assert run(["snap", "vol.bin", "delete", "s1"]) == 0
    capsys.readouterr()
    run(["snap", "vol.bin", "list"])
    assert "s1" not in capsys.readouterr().out


def test_dump_restore_workflow(workdir, capsys):
    run(["mkfs", "vol.bin"])
    run(["populate", "vol.bin", "--bytes", "2MB", "--seed", 5])
    assert run(["dump", "vol.bin", "t0.tape", "--level", 0,
                "--dumpdates", "dd.json"]) == 0
    assert os.path.exists("dd.json")
    assert run(["restore", "t0.tape", "new.bin", "--mkfs",
                "--symtab", "sym.json"]) == 0
    assert run(["verify", "new.bin", "t0.tape"]) == 0
    assert json.load(open("sym.json"))


def test_incremental_chain_via_cli(workdir, capsys):
    run(["mkfs", "vol.bin"])
    run(["populate", "vol.bin", "--bytes", "1MB", "--seed", 6])
    run(["dump", "vol.bin", "l0.tape", "--level", 0,
         "--dumpdates", "dd.json"])
    source = workdir / "extra.txt"
    source.write_bytes(b"added later")
    run(["put", "vol.bin", source, "/extra.txt"])
    run(["dump", "vol.bin", "l1.tape", "--level", 1,
         "--dumpdates", "dd.json"])
    run(["restore", "l0.tape", "new.bin", "--mkfs", "--symtab", "s.json"])
    run(["restore", "l1.tape", "new.bin", "--symtab", "s.json"])
    assert run(["get", "new.bin", "/extra.txt", workdir / "back.txt"]) == 0
    assert (workdir / "back.txt").read_bytes() == b"added later"


def test_selective_restore_via_cli(workdir, capsys):
    run(["mkfs", "vol.bin"])
    (workdir / "a").write_bytes(b"aa")
    (workdir / "b").write_bytes(b"bb")
    run(["put", "vol.bin", workdir / "a", "/a"])
    run(["put", "vol.bin", workdir / "b", "/b"])
    run(["dump", "vol.bin", "t.tape"])
    run(["restore", "t.tape", "new.bin", "--mkfs", "--select", "/a"])
    capsys.readouterr()
    run(["ls", "new.bin"])
    out = capsys.readouterr().out
    assert "/a" in out
    assert "/b" not in out


def test_image_dump_restore_via_cli(workdir, capsys):
    run(["mkfs", "vol.bin"])
    run(["populate", "vol.bin", "--bytes", "1MB", "--seed", 7])
    assert run(["image-dump", "vol.bin", "img.bin",
                "--snapshot", "base"]) == 0
    assert run(["image-restore", "img.bin", "replica.bin"]) == 0
    assert run(["fsck", "replica.bin", "--parity"]) == 0


def test_image_incremental_via_cli(workdir, capsys):
    run(["mkfs", "vol.bin"])
    run(["populate", "vol.bin", "--bytes", "1MB", "--seed", 8])
    run(["image-dump", "vol.bin", "full.img", "--snapshot", "A"])
    (workdir / "n").write_bytes(b"new")
    run(["put", "vol.bin", workdir / "n", "/n"])
    run(["image-dump", "vol.bin", "incr.img", "--snapshot", "B",
         "--base", "A"])
    run(["image-restore", "full.img", "replica.bin"])
    run(["image-restore", "incr.img", "replica.bin"])
    assert run(["get", "replica.bin", "/n", workdir / "n2"]) == 0
    assert (workdir / "n2").read_bytes() == b"new"


def test_toc_and_estimate(workdir, capsys):
    run(["mkfs", "vol.bin"])
    (workdir / "a").write_bytes(b"a" * 5000)
    run(["put", "vol.bin", workdir / "a", "/a"])
    run(["dump", "vol.bin", "t.tape"])
    capsys.readouterr()
    assert run(["toc", "t.tape"]) == 0
    assert "/a" in capsys.readouterr().out
    assert run(["estimate", "vol.bin", "--level", 0]) == 0
    assert "estimated level-0 dump" in capsys.readouterr().out


def test_verify_detects_change(workdir, capsys):
    run(["mkfs", "vol.bin"])
    (workdir / "a").write_bytes(b"original")
    run(["put", "vol.bin", workdir / "a", "/a"])
    run(["dump", "vol.bin", "t.tape"])
    (workdir / "a2").write_bytes(b"CHANGED!")
    run(["put", "vol.bin", workdir / "a2", "/a"])
    assert run(["verify", "vol.bin", "t.tape"]) == 1


def test_scrub(workdir, capsys):
    run(["mkfs", "vol.bin"])
    assert run(["scrub", "vol.bin"]) == 0
    assert "stripes repaired" in capsys.readouterr().out


def test_error_reporting(workdir, capsys):
    run(["mkfs", "vol.bin"])
    assert run(["get", "vol.bin", "/missing", workdir / "o"]) == 2
    assert "error" in capsys.readouterr().err


def test_image_verify_via_cli(workdir, capsys):
    run(["mkfs", "vol.bin"])
    run(["populate", "vol.bin", "--bytes", "1MB", "--seed", 9])
    run(["image-dump", "vol.bin", "img.bin", "--snapshot", "v"])
    assert run(["verify", "vol.bin", "img.bin", "--image"]) == 0
    out = capsys.readouterr().out
    assert "matches" in out


def test_rebuild_via_cli(workdir, capsys):
    run(["mkfs", "vol.bin"])
    run(["populate", "vol.bin", "--bytes", "1MB", "--seed", 10])
    assert run(["rebuild", "vol.bin", "--group", 0, "--disk", 1]) == 0
    assert run(["fsck", "vol.bin", "--parity"]) == 0


def test_dumpdates_listing_via_cli(workdir, capsys):
    run(["mkfs", "vol.bin"])
    run(["populate", "vol.bin", "--bytes", "512KB", "--seed", 11])
    run(["dump", "vol.bin", "l0.tape", "--level", 0,
         "--dumpdates", "dd.json"])
    run(["dump", "vol.bin", "l2.tape", "--level", 2,
         "--dumpdates", "dd.json"])
    capsys.readouterr()
    assert run(["dumpdates", "dd.json"]) == 0
    out = capsys.readouterr().out
    assert "2 record(s)" in out
    lines = [line.split() for line in out.splitlines()
             if line.startswith("vol")]
    assert [line[2] for line in lines] == ["0", "2"]
    # No source at all is an error.
    assert run(["dumpdates"]) == 2


class TestManagerWorkflow:
    """run-campaign -> catalog -> restore-pit -> policy -> prune, each a
    separate ``main()`` invocation, so every step survives a restart."""

    DAYS = 5  # GFS(4,2): full day 0, level 1 day 4, level 2 between

    @pytest.fixture()
    def campaign(self, workdir, capsys):
        assert run(["run-campaign", "cat.json", "--pool", "pool.med",
                    "--volume", "home=logical", "--volume", "rlse=image",
                    "--days", self.DAYS, "--schedule", "gfs:4x2",
                    "--bytes", "768KB", "--tapes", 30,
                    "--tape-capacity", "4MB", "--daily-snapshots"]) == 0
        out = capsys.readouterr().out
        assert "campaign: %d day(s), 2 volume(s)" % self.DAYS in out
        return workdir

    def test_catalog_listing_and_chain(self, campaign, capsys):
        assert run(["catalog", "cat.json", "list"]) == 0
        out = capsys.readouterr().out
        assert out.count("logical") >= self.DAYS
        assert out.count("image") >= self.DAYS
        assert "media:" in out
        assert run(["catalog", "cat.json", "chain", "home",
                    "--day", 4]) == 0
        out = capsys.readouterr().out
        assert "level 0 day 0" in out
        assert "level 1 day 4" in out
        assert "level 2" not in out  # minimal chain skips the level 2s
        assert "load order:" in out
        # chain without a FSID is a usage error.
        assert run(["catalog", "cat.json", "chain"]) == 2

    def test_dumpdates_from_catalog(self, campaign, capsys):
        assert run(["dumpdates", "--catalog", "cat.json"]) == 0
        out = capsys.readouterr().out
        assert "home" in out
        assert "rlse" not in out  # image sets don't feed dumpdates

    def test_restore_pit_matches_source_snapshot(self, campaign, capsys):
        from repro.backup.verify import verify_trees
        from repro.storage.persist import load_volume
        from repro.wafl.filesystem import WaflFilesystem

        for fsid, day in (("home", 3), ("rlse", self.DAYS - 1)):
            out_name = "rest-%s.bin" % fsid
            assert run(["restore-pit", "cat.json", fsid, out_name,
                        "--pool", "pool.med", "--day", day]) == 0
            source = WaflFilesystem.mount(load_volume("%s.vol" % fsid))
            restored = WaflFilesystem.mount(load_volume(out_name))
            assert verify_trees(source.snapshot_view("day.%d" % day),
                                restored) == []

    def test_policy_and_prune_roundtrip(self, campaign, capsys):
        assert run(["policy", "cat.json", "set", "home",
                    "redundancy 1"]) == 0
        assert run(["policy", "cat.json", "set", "rlse", "window 2"]) == 0
        capsys.readouterr()
        assert run(["policy", "cat.json", "list"]) == 0
        out = capsys.readouterr().out
        assert "home:/ -> redundancy 1" in out
        assert "rlse:/ -> window 2" in out
        # One full chain each: redundancy 1 keeps everything, but the
        # image volume's 2-day window retires days 0 and 1... except
        # they anchor day 2's chain, so only truly unneeded sets go.
        assert run(["prune", "cat.json", "--pool", "pool.med"]) == 0
        prune_out = capsys.readouterr().out
        assert "prune:" in prune_out
        # Whatever was retired, every surviving chain still plans.
        assert run(["catalog", "cat.json", "chain", "home"]) == 0
        assert run(["catalog", "cat.json", "chain", "rlse"]) == 0

    def test_policy_rejects_garbage(self, campaign, capsys):
        assert run(["policy", "cat.json", "set", "home",
                    "keep forever"]) == 2
        assert run(["policy", "cat.json", "set"]) == 2


def test_run_campaign_rejects_bad_volume_spec(workdir, capsys):
    assert run(["run-campaign", "cat.json", "--pool", "pool.med",
                "--volume", "home", "--days", 1]) == 2
    assert "NAME=STRATEGY" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Observability flags and the trace subcommand
# ---------------------------------------------------------------------------

def test_dump_with_trace_chrome_and_metrics(workdir, capsys):
    run(["mkfs", "vol.bin"])
    run(["populate", "vol.bin", "--bytes", "1MB", "--seed", 5])
    assert run(["dump", "vol.bin", "t0.tape", "--level", 0,
                "--trace", "t.jsonl", "--trace-chrome", "t.chrome.json",
                "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "dump: simulated elapsed" in out
    assert "Creating snapshot" in out       # the per-phase summary table
    assert "counter   tape.write_bytes" in out  # the metrics text dump
    assert os.path.exists("t.jsonl") and os.path.exists("t.chrome.json")

    # The saved trace validates, summarizes, and exports.
    assert run(["trace", "validate", "t.jsonl"]) == 0
    assert "spans well-formed" in capsys.readouterr().out
    assert run(["trace", "summary", "t.jsonl"]) == 0
    assert "Dumping files" in capsys.readouterr().out
    assert run(["trace", "export", "t.jsonl", "--out", "x.json"]) == 0
    capsys.readouterr()
    doc = json.load(open("x.json"))
    assert any(e["ph"] == "M" for e in doc["traceEvents"])

    # The dump it traced is still a real dump.
    assert run(["restore", "t0.tape", "new.bin", "--mkfs"]) == 0
    assert run(["verify", "new.bin", "t0.tape"]) == 0


@pytest.mark.parametrize("body, message", [
    ('{"ph": "i", "name": "x", "ts": 0}\n', "has no footer"),
    ('{"ph": "i", "name": "x", "ts": 0}\n'
     '{"ph": "footer", "events": 2, "schema": 1}\n',
     "footer says 2 events, found 1"),
    ('{"ph": "i", "name": \n{"ph": "footer", "events": 1, "schema": 1}\n',
     "line 1 is not JSON"),
    ('{"ph": "B", "name": "x", "ts": 0}\n{"ph": "E", "name": "x", "ts": 1}\n'
     '{"ph": "footer", "events": 2, "schema": 1}\n', "line 1 has phase 'B'"),
], ids=["no-footer", "footer-count", "not-json", "begin-end"])
def test_a_damaged_trace_file_is_one_error_line(workdir, capsys, body,
                                                message):
    (workdir / "bad.jsonl").write_text(body)
    for action in ("validate", "summary", "export"):
        assert run(["trace", action, "bad.jsonl"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro-backup: error: trace file ")
        assert message in captured.err
        assert len(captured.err.splitlines()) == 1


def test_trace_validate_refuses_a_negative_span(workdir, capsys):
    (workdir / "neg.jsonl").write_text(
        '{"ph": "X", "name": "x", "ts": 1, "dur": -0.5}\n'
        '{"ph": "footer", "events": 1, "schema": 1}\n')
    assert run(["trace", "validate", "neg.jsonl"]) == 2
    err = capsys.readouterr().err
    assert "non-negative integer dur" in err and len(err.splitlines()) == 1


def test_a_traced_fleet_run_validates(workdir, capsys):
    (workdir / "spec.json").write_text(json.dumps({
        "name": "filer-01", "drives": 1, "seed": 7,
        "tenants": [{"name": name, "data_bytes": 100000, "seed": seed,
                     "cartridges": 4, "cartridge_capacity": 1000000,
                     "blocks_per_disk": 600}
                    for name, seed in (("acme", 1), ("bolt", 2))]}))
    assert run(["fleet", "init", "fl", "--spec", "spec.json"]) == 0
    assert run(["fleet", "run", "fl", "--days", 2,
                "--trace", "f.jsonl"]) == 0
    capsys.readouterr()
    assert run(["trace", "validate", "f.jsonl"]) == 0
    assert "export schema ok" in capsys.readouterr().out
    from repro.obs import read_jsonl
    # Spans, instants and the scheduler's counter samples: every phase.
    assert {e["ph"] for e in read_jsonl("f.jsonl")} == {"X", "i", "C"}


def test_metrics_snapshot_file_and_disabled_default(workdir, capsys):
    run(["mkfs", "vol.bin"])
    run(["populate", "vol.bin", "--bytes", "512KB", "--seed", 2])
    assert run(["image-dump", "vol.bin", "i0.tape",
                "--metrics", "m.json"]) == 0
    out = capsys.readouterr().out
    assert "metrics: snapshot -> m.json" in out
    snap = json.load(open("m.json"))
    assert snap["counters"]["tape.write_bytes"] > 0
    assert snap["counters"]["executor.jobs"] == 1

    # Without the flags the plane stays dark: no summary, no spans.
    assert run(["image-restore", "i0.tape", "r.bin"]) == 0
    out = capsys.readouterr().out
    assert "simulated elapsed" not in out
    assert "counter" not in out


def test_run_campaign_with_trace(workdir, capsys):
    assert run(["run-campaign", "cat.json", "--pool", "pool.med",
                "--volume", "home=logical", "--days", 2,
                "--schedule", "gfs:4x2", "--bytes", "256KB",
                "--tapes", 10, "--tape-capacity", "4MB",
                "--trace", "c.jsonl"]) == 0
    capsys.readouterr()
    assert run(["trace", "validate", "c.jsonl"]) == 0
    capsys.readouterr()
    from repro.obs import read_jsonl
    events = read_jsonl("c.jsonl")
    spans = [e for e in events if e.get("cat") == "campaign"]
    assert len(spans) == 2  # one per campaign day
    assert {e["tid"] for e in spans} == {"home"}
    assert all("level" in e["args"] and "day" in e["args"] for e in spans)


# ---------------------------------------------------------------------------
# The verb registry, its one error boundary, and cold start
# ---------------------------------------------------------------------------

TOP_VERBS = ["mkfs", "populate", "ls", "put", "get", "rm", "snap", "dump",
             "restore", "image-dump", "image-restore", "interactive", "toc",
             "verify", "estimate", "fsck", "scrub", "rebuild", "df", "bench",
             "dumpdates", "catalog", "policy", "prune", "run-campaign",
             "fleet", "trace", "restore-pit"]
FLEET_VERBS = ["init", "run", "status", "submit", "pause", "resume",
               "serve"]


def test_the_verbs_are_pinned():
    names = [row[0] for row in VERBS]
    assert [n for n in names if " " not in n] == TOP_VERBS
    assert [n[len("fleet "):] for n in names
            if n.startswith("fleet ")] == FLEET_VERBS


@pytest.mark.parametrize(
    "argv", [[v] for v in TOP_VERBS] + [["fleet", v] for v in FLEET_VERBS],
    ids=lambda argv: " ".join(argv))
def test_every_verb_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ")


@pytest.mark.parametrize("argv", [
    ["populate", "v.vol", "--bytes", "10XB"],
    ["dump", "v.vol", "t.tape", "--tape-capacity", "lots"],
    ["image-dump", "v.vol", "i.img", "--tape-capacity", "infGB"],
    ["run-campaign", "c.json", "--pool", "p.med", "--volume", "a=logical",
     "--bytes", "MB"],
    ["run-campaign", "c.json", "--pool", "p.med", "--volume", "a=logical",
     "--tape-capacity", "1e999KB"],
])
def test_malformed_size_is_a_usage_error(workdir, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid size value" in err
    assert "Traceback" not in err
    assert os.listdir(workdir) == []


@pytest.mark.parametrize("argv, message", [
    (["snap", "vol.bin", "create"], "snap create needs a NAME"),
    (["snap", "vol.bin", "delete"], "snap delete needs a NAME"),
    (["rebuild", "vol.bin", "--group", "5", "--disk", "0"],
     "no RAID group 5"),
    (["rebuild", "vol.bin", "--group", "-1", "--disk", "0"],
     "no RAID group -1"),
    (["rebuild", "vol.bin", "--group", "0", "--disk", "9"],
     "no data disk 9"),
])
def test_missing_operand_is_one_error_line(workdir, capsys, argv, message):
    run(["mkfs", "vol.bin", "--groups", 1])
    before = (workdir / "vol.bin").read_bytes()
    capsys.readouterr()
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro-backup: error: ")
    assert captured.err.count("\n") == 1
    assert message in captured.err
    assert (workdir / "vol.bin").read_bytes() == before


@pytest.mark.parametrize("argv", [
    ["toc", "nosuch.tape"],
    ["image-restore", "nosuch.img", "r.vol"],
    ["trace", "summary", "nosuch.jsonl"],
    ["fsck", "nosuch.vol"],
])
def test_missing_input_file_is_one_error_line(workdir, capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro-backup: error: ")
    assert captured.err.count("\n") == 1
    assert "nosuch" in captured.err


def test_cold_start_imports_no_engine():
    """Building the parser imports no verb's machinery: each verb
    imports what it uses when it runs."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, repro.cli; repro.cli.build_parser(); "
            "print(sorted(m for m in sys.modules"
            " if m == 'numpy' or m.startswith('repro.wafl')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_interactive_session_extracts_a_marked_file(workdir, capsys,
                                                     monkeypatch):
    from repro.storage.persist import load_volume, save_volume
    from repro.wafl.filesystem import WaflFilesystem

    payload = b"marked for extraction \x00\x01" * 50
    run(["mkfs", "vol.bin"])
    fs = WaflFilesystem.mount(load_volume("vol.bin"))
    fs.mkdir("/docs")
    fs.create("/docs/a.txt", payload)
    fs.create("/docs/b.txt", b"left on tape")
    fs.consistency_point()
    save_volume(fs.volume, "vol.bin")
    run(["dump", "vol.bin", "t.tape"])
    run(["mkfs", "new.bin"])
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        "ls\ncd docs\nls\nadd a.txt\nmarked\nextract\nquit\nls\n"))
    capsys.readouterr()
    assert run(["interactive", "t.tape", "new.bin"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == ["docs/", "a.txt", "b.txt", "marked /docs/a.txt",
                       "/docs/a.txt", "extracted 1 files"]
    assert run(["get", "new.bin", "/docs/a.txt", workdir / "back"]) == 0
    assert (workdir / "back").read_bytes() == payload
    assert run(["get", "new.bin", "/docs/b.txt", workdir / "b"]) == 2


SOLO_SPEC = {"name": "filer-01", "drives": 1, "seed": 7,
             "tenants": [{"name": "solo", "data_bytes": 100000,
                          "cartridges": 4, "cartridge_capacity": 1000000,
                          "blocks_per_disk": 600}]}


def _misshapen_state(key, value):
    """A well-formed fresh state with ``key`` set to ``value`` (removed
    when ``value`` is None)."""
    state = {"version": 1, "day": 0, "tick": 0, "job_seq": 0, "paused": [],
             "pending": [], "recent": [], "drr": {"cursors": {}}}
    if value is None:
        del state[key]
    else:
        state[key] = value
    return json.dumps(state)


@pytest.mark.parametrize("spec, state, argv, message", [
    (SOLO_SPEC, '{"version": 1, "day": 0', ["fleet", "status", "fl"],
     "cannot read fleet state"),
    (SOLO_SPEC, "[1,2]", ["fleet", "run", "fl", "--days", "1"],
     "is not a JSON object"),
    (dict(SOLO_SPEC, tenants=[dict(SOLO_SPEC["tenants"][0], weight="x")]),
     None, None, "weight must be an integer, got 'x'"),
    (dict(SOLO_SPEC, drives="2"), None, None,
     "drives must be an integer, got '2'"),
] + [
    (SOLO_SPEC, _misshapen_state(key, value), ["fleet", command, "fl"],
     message)
    for key, value, message in [
        ("tick", None, "tick must be a whole number >= 0, got None"),
        ("day", -1, "day must be a whole number >= 0, got -1"),
        ("job_seq", "x", "job_seq must be a whole number >= 0, got 'x'"),
        ("paused", 5, "paused must be a list of tenant names"),
        ("paused", [1], "paused must be a list of tenant names"),
        ("pending", {}, "pending must be a list of objects"),
        ("recent", [1], "recent must be a list of objects"),
        ("drr", [], "drr.cursors must map lanes"),
        ("drr", {"cursors": []}, "drr.cursors must map lanes"),
        ("drr", {"cursors": {"express": 0}}, "drr.cursors must map lanes"),
        ("drr", {"cursors": {"daily": True}}, "drr.cursors must map lanes"),
    ]
    for command in ("status", "run")
])
def test_bad_fleet_spec_or_state_is_one_error_line(workdir, capsys, spec,
                                                   state, argv, message):
    (workdir / "spec.json").write_text(json.dumps(spec))
    code = run(["fleet", "init", "fl", "--spec", "spec.json"])
    if state is not None:
        assert code == 0
        (workdir / "fl" / "state.json").write_text(state)
        capsys.readouterr()
        code = run(argv)
        assert (workdir / "fl" / "state.json").read_text() == state
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("repro-backup: error: ")
    assert captured.err.count("\n") == 1
    assert message in captured.err


def test_fleet_lifecycle_through_main(workdir, capsys):
    from repro.fleet import validate_status

    (workdir / "spec.json").write_text(json.dumps({
        "name": "filer-01", "drives": 1, "seed": 7,
        "tenants": [{"name": "solo", "data_bytes": 100000,
                     "cartridges": 4, "cartridge_capacity": 1000000,
                     "blocks_per_disk": 600}]}))
    assert run(["fleet", "init", "fl", "--spec", "spec.json"]) == 0
    assert run(["fleet", "submit", "fl", "--tenant", "solo",
                "--kind", "dump"]) == 0
    assert run(["fleet", "pause", "fl", "solo"]) == 0
    assert "paused tenants: solo" in capsys.readouterr().out
    assert run(["fleet", "resume", "fl", "solo"]) == 0
    assert "paused tenants: (none)" in capsys.readouterr().out
    assert run(["fleet", "status", "fl", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    validate_status(document)
    assert [t["paused"] for t in document["tenants"]] == [False]
    assert [(job["tenant"], job["kind"])
            for job in document["jobs"]["pending"]] == [("solo", "dump")]
