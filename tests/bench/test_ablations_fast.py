"""Fast shape checks for the ablation machinery (tiny configurations).

The full ablation sweep lives in ``benchmarks/test_ablations.py``; these
tests only exercise the plumbing so a plain ``pytest tests/`` run covers
the module.
"""

import pytest

import repro.bench.ablations as ablations
from repro.bench.report import Table


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setattr(ablations, "ABLATION_SCALE", 24000)


def test_nvram_ablation_shape():
    table = ablations.sweep("nvram").table()
    assert isinstance(table, Table)
    through = table.row("through NVRAM fill CPU").measured
    bypassed = table.row("bypassing NVRAM fill CPU").measured
    assert bypassed <= through


def test_readahead_ablation_shape():
    table = ablations.sweep("readahead").table()
    labels = [row.label for row in table.rows]
    assert any("window=1" in label for label in labels)


def test_cache_ablation_shape():
    table = ablations.sweep("cache").table()
    tiny = table.row("cache=64 blocks cold metadata reads").measured
    big = table.row("cache=16384 blocks cold metadata reads").measured
    assert big <= tiny
