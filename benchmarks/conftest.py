"""Shared setup for the benchmark suite.

Every benchmark regenerates one of the paper's tables (or an ablation) on
the scaled testbed and prints the measured-vs-paper comparison.  The same
experiments can be run outside pytest with ``python -m repro.bench.run_all``,
which also rewrites EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro.bench.report import Table, format_table

# Tables produced during this session, for optional EXPERIMENTS.md output.
COLLECTED: dict = {}


def show(table: Table, key: str = "") -> Table:
    print()
    print(format_table(table))
    COLLECTED[key or table.title] = table
    return table


@pytest.fixture(scope="session")
def home_env():
    from repro.bench.configs import build_home_env

    return build_home_env()


@pytest.fixture(scope="session")
def basic_results(home_env):
    """The one Tables 2/3 run of the session; both tables read from it."""
    from repro.bench.harness import run_basic

    return run_basic(home_env)
