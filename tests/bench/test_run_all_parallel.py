"""The parallel evaluation plane's core guarantee: ``--jobs N`` output is
byte-identical to a serial run of the same grid.

Asserts on the session's one set of reduced-grid runs (Tables 1-3 + the
small ablations; ``reduced_grid`` in ``tests/conftest.py``): rendered
markdown byte for byte, and the task values behind it row for row.
"""

from __future__ import annotations

import re

import pytest

from repro.bench.harness import (
    basic_from_strategies,
    table2_from_basic,
    table3_from_basic,
)
from repro.bench.run_all import HEADLINE, Preset, build_plan
from repro.parallel import fork_available

REDUCED = Preset.named("reduced")


@pytest.mark.skipif(not fork_available(), reason="needs fork")
def test_reduced_grid_is_byte_identical_serial_vs_jobs2(reduced_grid):
    serial = reduced_grid[1, "none", False].body
    assert reduced_grid[2, "none", True].body == serial
    assert reduced_grid[2, "warm", True].body == serial


def test_reduced_grid_is_unmoved_by_an_env_cache(reduced_grid):
    plain = reduced_grid[1, "none", False].body
    assert reduced_grid[1, "cold", True].body == plain
    assert reduced_grid[1, "warm", True].body == plain


@pytest.mark.skipif(not fork_available(), reason="needs fork")
def test_reduced_grid_tables_match_row_for_row(reduced_grid):
    items = reduced_grid[1, "none", False].items
    serial_values = reduced_grid[1, "none", False].values
    parallel_values = reduced_grid[2, "none", True].values

    def rendered(values):
        """Every non-ablation table of the document (the strategy pair as
        Tables 2 and 3), as comparable row tuples."""
        def of_kind(kind):
            return [value for item, value in zip(items, values)
                    if item.kind == kind]

        basic = basic_from_strategies(of_kind("basic"))
        scale = REDUCED.config.scale
        tables = of_kind("table") + [table2_from_basic(basic, scale),
                                     table3_from_basic(basic, scale)]
        return [(table.title, [(row.label, row.measured, row.paper, row.unit)
                               for row in table.rows]) for table in tables]

    for item, s_value, p_value in zip(items, serial_values, parallel_values):
        if item.kind == "ablation":
            assert p_value == s_value, item.spec.name
    assert rendered(parallel_values) == rendered(serial_values)


def test_merge_regroups_ablation_points_in_order():
    items = build_plan(REDUCED)
    names = [item.spec.name for item in items]
    # Declaration order: Table 1, the two strategies Tables 2 and 3 are
    # read from, then the ablation sweeps with their points contiguous
    # (merge_sections relies on contiguity).
    assert names[:3] == ["table1", "basic.logical", "basic.physical"]
    assert [item.kind for item in items[:3]] == ["table", "basic", "basic"]
    sweeps = [item.sweep_key for item in items if item.kind == "ablation"]
    seen = []
    for key in sweeps:
        if not seen or seen[-1] != key:
            seen.append(key)
    assert len(seen) == len(set(sweeps)), "sweep points must be contiguous"


def test_every_headline_cell_is_read_off_a_row(reduced_grid):
    """No verdict is hand-written: a cell is a rendered row's ratio, or
    says its table did not run (Tables 4/5 and Section 5.1 are not in
    the reduced grid)."""
    body = reduced_grid[1, "none", False].body
    table = body.split("| Claim (paper) | Reproduced? |\n|---|---|\n")[1]
    rows = table.split("\n\n")[0].split("\n")
    assert len(rows) == len(HEADLINE)
    cells = {}
    for row, (claim, name, _label) in zip(rows, HEADLINE):
        text, cell = row.strip("| ").split(" | ")
        assert text == claim
        assert re.fullmatch(r"\d+\.\d\dx of paper|not run", cell), row
        cells[name] = cell
    assert cells["Table 5"] == cells["Section 5.1"] == "not run"
    assert cells["Table 1"] == "1.00x of paper"
