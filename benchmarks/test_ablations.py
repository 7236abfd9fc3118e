"""Ablation benchmarks: the mechanisms behind the paper's results.

Each one turns a design choice off (or sweeps it) and shows the effect
the paper attributes to it.
"""

from repro.backup.logical.dump import READAHEAD_EXTENTS
from repro.bench.ablations import sweep

from benchmarks.conftest import show


def test_fragmentation_hurts_logical_not_physical(benchmark):
    table = benchmark.pedantic(sweep("fragmentation").table, rounds=1, iterations=1)
    show(table, "ablation-fragmentation")
    logical_young = table.row("rounds=0 logical dump MB/s").measured
    logical_aged = table.row("rounds=3 logical dump MB/s").measured
    physical_young = table.row("rounds=0 physical dump MB/s").measured
    physical_aged = table.row("rounds=3 physical dump MB/s").measured
    # "A mature data set is typically slower to backup than a newly
    # created one because of fragmentation" — for LOGICAL dump.
    assert logical_aged < logical_young
    # And by how much is the extent length's doing: one aging round
    # lengthens the mean extent, three shorten it, and logical dump rate
    # is ordered the same way (both start from a cold mount, so neither
    # rides the cache the populate pass left).
    extent = [table.row("rounds=%d mean extent (blocks)" % rounds).measured
              for rounds in (1, 0, 3)]
    logical = [table.row("rounds=%d logical dump MB/s" % rounds).measured
               for rounds in (1, 0, 3)]
    assert extent[0] >= extent[1] > extent[2]
    assert logical[0] >= logical[1] > logical[2]
    # Image dump reads in physical order: aging barely touches it.
    assert physical_aged > physical_young * 0.85


def test_nvram_bypass_speeds_logical_restore(benchmark):
    table = benchmark.pedantic(sweep("nvram").table, rounds=1, iterations=1)
    show(table, "ablation-nvram")
    through = table.row("through NVRAM total elapsed").measured
    bypassed = table.row("bypassing NVRAM total elapsed").measured
    # Footnote 2: avoiding NVRAM is a pure win for restore.
    assert bypassed <= through


def test_readahead_window(benchmark):
    table = benchmark.pedantic(sweep("readahead").table, rounds=1, iterations=1)
    show(table, "ablation-readahead")
    serialized = table.row("window=1 logical files MB/s").measured
    default = table.row("window=%d logical files MB/s"
                        % READAHEAD_EXTENTS).measured
    # On a tape fast enough to expose the disk side, a window of one
    # serializes the producer behind every seek.
    assert serialized < default


def test_cache_size_matters_for_restore(benchmark):
    table = benchmark.pedantic(sweep("cache").table, rounds=1, iterations=1)
    show(table, "ablation-cache")
    tiny = table.row("cache=64 blocks cold metadata reads").measured
    big = table.row("cache=16384 blocks cold metadata reads").measured
    assert big < tiny
    tiny_hits = table.row("cache=64 blocks hit rate").measured
    big_hits = table.row("cache=16384 blocks hit rate").measured
    assert big_hits >= tiny_hits


def test_second_cpu_lifts_logical_parallel(benchmark):
    table = benchmark.pedantic(sweep("cpu").table, rounds=1, iterations=1)
    show(table, "ablation-cpu")
    one = table.row("cpus=1 logical files MB/s (4 drives)").measured
    two = table.row("cpus=2 logical files MB/s (4 drives)").measured
    # Logical's parallel scaling is CPU-gated (Section 5.3): a second CPU
    # buys real throughput.
    assert two > one * 1.05
