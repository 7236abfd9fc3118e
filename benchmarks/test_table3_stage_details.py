"""Table 3 — dump and restore per-stage details.

Regenerates the paper's stage-by-stage elapsed time and CPU utilization
rows, including the headline CPU claims ("logical dump consumes 5 times
the CPU of its physical counterpart; logical restore consumes more than 3
times the CPU that physical restore does").
"""

import pytest

from repro.bench.harness import table2_from_basic, table3_from_basic
from repro.units import HOUR

from benchmarks.conftest import show


def test_table3(benchmark, home_env, basic_results):
    table = benchmark.pedantic(
        lambda: table3_from_basic(basic_results, home_env.config.scale),
        rounds=1, iterations=1,
    )
    show(table, "table3")

    # As in the paper, each section's stage times sum to its Table 2
    # elapsed cell: one extrapolation rule for both tables.
    table2 = table2_from_basic(basic_results, home_env.config.scale)
    for section, op in (("Logical Dump", "Logical Backup"),
                        ("Logical Restore", "Logical Restore"),
                        ("Physical Dump", "Physical Backup"),
                        ("Physical Restore", "Physical Restore")):
        stages = sum(row.measured for row in table.rows
                     if row.label.startswith(section + " / ")
                     and row.label.endswith(" time"))
        total = table2.row("%s elapsed (extrapolated)" % op).measured
        assert stages == pytest.approx(total * HOUR, rel=1e-9), section

    dump_ratio = table.row("logical/physical dump CPU ratio").measured
    restore_ratio = table.row("logical/physical restore CPU ratio").measured
    assert dump_ratio > 3.0  # paper: 5x
    assert restore_ratio > 2.0  # paper: >3x

    # Physical dump's streaming stage runs at single-digit CPU.
    physical_cpu = table.row("Physical Dump / Dumping blocks CPU").measured
    assert physical_cpu < 0.10
    # Logical dump's file stage burns a quarter-ish of the CPU.
    logical_cpu = table.row("Logical Dump / Dumping files CPU").measured
    assert 0.10 < logical_cpu < 0.60
