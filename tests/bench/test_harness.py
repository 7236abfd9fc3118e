"""Bench harness sanity at a tiny scale (fast versions of every table)."""

import pytest

from repro.bench import (
    build_home_env,
    format_table,
    run_concurrent_volumes,
    run_table1,
    run_table2,
    run_table3,
    run_table45,
)
from repro.bench.configs import EliotConfig
from repro.bench.harness import (
    basic_from_strategies,
    run_basic,
    run_strategy,
    table2_from_basic,
    table3_from_basic,
    table45_from_basic,
)
from repro.bench.report import Row, Table, to_markdown
from repro.units import HOUR, MB

TINY = 16000  # 1:16000 scale: ~12 MB home volume, seconds per run


@pytest.fixture(scope="module")
def tiny_env():
    return build_home_env(EliotConfig(scale=TINY, aging_rounds=1))


class TestReport:
    def test_row_ratio(self):
        assert Row("x", 2.0, 1.0).ratio == pytest.approx(2.0)
        assert Row("x", 2.0, None).ratio is None
        assert Row("x", None, 3.0).ratio is None

    def test_format_and_markdown(self):
        table = Table("demo")
        table.add("elapsed", 120.0, 100.0, unit="s")
        table.add("cpu", 0.25, 0.30, unit="%")
        text = format_table(table)
        assert "demo" in text
        assert "1.20x" in text
        markdown = to_markdown(table)
        assert markdown.startswith("### demo")
        assert "| elapsed |" in markdown

    def test_row_lookup(self):
        table = Table("demo")
        table.add("a", 1)
        assert table.row("a").measured == 1
        with pytest.raises(KeyError):
            table.row("missing")


class TestTable1:
    def test_semantics_and_verification(self):
        table, checks = run_table1()
        assert checks["incremental_matches"]
        counts = checks["counts"]
        assert all(value >= 0 for value in counts.values())
        assert table.row("incremental dump block count").ratio == 1.0


def _observable_state(env):
    """What a later experiment on ``env`` could see of an earlier one."""
    from repro.chaos.verify import filesystem_digest

    fs = env.home_fs
    cache = fs.volume.cache
    return (filesystem_digest(fs),
            [(record.snap_id, record.name) for record in fs.snapshots()],
            (cache.hits, cache.misses))


def _run_table4(env):
    return run_table45(2, env.config)


class TestBasicTables:
    @pytest.mark.parametrize("runner, qtrees", [
        (run_basic, 0), (run_table2, 0), (run_table3, 0), (_run_table4, 2)],
        ids=["run_basic", "run_table2", "run_table3", "run_table45"])
    def test_environment_is_left_untouched(self, runner, qtrees):
        env = build_home_env(EliotConfig(scale=TINY, aging_rounds=1,
                                         qtrees=qtrees))
        before = _observable_state(env)
        runner(env)
        assert _observable_state(env) == before

    def test_rows_do_not_depend_on_what_ran_before(self, tiny_env):
        first = to_markdown(run_table2(tiny_env))
        run_table3(tiny_env)
        assert to_markdown(run_table2(tiny_env)) == first

    def test_unknown_strategy_is_refused(self, tiny_env):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unknown backup strategy"):
            run_strategy(tiny_env, "differential")

    def test_table2_rows_and_verification(self, tiny_env):
        table = run_table2(tiny_env)
        assert table.row("logical restore verified (diff count)").measured == 0
        assert table.row("physical restore verified (diff count)").measured == 0
        # The headline shape: physical backup is not slower than logical.
        logical = table.row("Logical Backup MBytes/second").measured
        physical = table.row("Physical Backup MBytes/second").measured
        assert physical >= logical * 0.9
        # Physical restore beats logical restore clearly.
        lr = table.row("Logical Restore MBytes/second").measured
        pr = table.row("Physical Restore MBytes/second").measured
        assert pr > lr

    def test_table3_cpu_ratios(self, tiny_env):
        table = run_table3(tiny_env)
        dump_ratio = table.row("logical/physical dump CPU ratio").measured
        restore_ratio = table.row("logical/physical restore CPU ratio").measured
        # Paper: 5x and >3x; shape check at tiny scale: clearly above 2x.
        assert dump_ratio > 2.0
        assert restore_ratio > 1.5

    def test_stage_rows_present(self, tiny_env):
        table = run_table3(tiny_env)
        labels = [row.label for row in table.rows]
        assert any("Dumping files" in label for label in labels)
        assert any("Creating snapshot" in label for label in labels)
        assert any("Filling in data" in label for label in labels)
        assert any("Restoring blocks" in label for label in labels)


#: Table 3's sections beside the Table 2 operations they break down.
SECTIONS = (("Logical Dump", "Logical Backup"),
            ("Logical Restore", "Logical Restore"),
            ("Physical Dump", "Physical Backup"),
            ("Physical Restore", "Physical Restore"))


def assert_stages_sum_to_table2(basic, scale):
    """Table 3's stage times add up to Table 2's elapsed cell, as in the
    paper (7.43 h = 30 s + 20 min + 20 min + 6.75 h + 35 s)."""
    table2 = table2_from_basic(basic, scale)
    table3 = table3_from_basic(basic, scale)
    for section, op in SECTIONS:
        stages = [row.measured for row in table3.rows
                  if row.label.startswith(section + " / ")
                  and row.label.endswith(" time")]
        assert stages, section
        total = table2.row("%s elapsed (extrapolated)" % op).measured
        assert sum(stages) == pytest.approx(total * HOUR, rel=1e-9), section


class TestOneExtrapolationRule:
    def test_stages_sum_to_the_total(self, tiny_env):
        assert_stages_sum_to_table2(run_basic(tiny_env), TINY)

    def test_stages_sum_to_the_total_under_a_data_cap(self):
        """With ``data_cap`` the scale is not the data ratio: the
        replica holds far less than 188 GB / ``scale``."""
        config = EliotConfig(scale=4000, data_cap=4 * MB, aging_rounds=1)
        assert_stages_sum_to_table2(run_basic(build_home_env(config)),
                                    config.scale)


class TestParallelTables:
    def test_table45_four_drives(self):
        table = run_table45(4, EliotConfig(scale=TINY, aging_rounds=1,
                                           qtrees=4))
        assert table.row("logical restore verified (diff count)").measured == 0
        assert table.row("physical restore verified (diff count)").measured == 0
        logical = table.row("Logical overall GB/hour").measured
        physical = table.row("Physical overall GB/hour").measured
        # The paper's summary shape: physical wins on 4 drives.
        assert physical > logical

    def test_physical_rows_are_a_physical_only_run(self):
        """Each strategy runs on its own cold clone: Table 4's physical
        rows are what a physical-only run renders, whatever ran first."""
        config = EliotConfig(scale=TINY, aging_rounds=1, qtrees=2)
        table = run_table45(2, config)
        assert table.row("logical restore verified (diff count)").measured == 0
        assert table.row("physical restore verified (diff count)").measured == 0
        alone = table45_from_basic(basic_from_strategies(
            [run_strategy(build_home_env(config), "physical")]), 2, TINY)
        assert len(alone.rows) == 9
        rows = [(row.label, row.measured, row.paper) for row in table.rows
                if row.label.lower().startswith("physical")]
        assert rows == [(row.label, row.measured, row.paper)
                        for row in alone.rows]

    def test_invalid_drive_count(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            run_table45(3)

    def test_config_qtrees_must_match(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            run_table45(2, EliotConfig(scale=TINY, qtrees=4))


class TestConcurrentVolumes:
    def test_non_interference(self):
        table = run_concurrent_volumes(EliotConfig(scale=TINY,
                                                   aging_rounds=1))
        solo = table.row("home solo elapsed").measured
        both = table.row("home concurrent elapsed").measured
        # Paper: "did not interfere with each other at all".
        assert both < solo * 1.3
