"""Qtree split: the paper's equal-sized pieces for its parallel runs."""

from repro.backup.jobs import split_into_qtrees
from repro.units import MB
from repro.wafl.fsck import fsck
from repro.workload import WorkloadGenerator

from tests.conftest import make_fs


def test_split_into_qtrees_balanced():
    fs = make_fs(ngroups=3, ndata=4, blocks_per_disk=2500, name="home")
    paths = split_into_qtrees(fs, WorkloadGenerator(seed=99), 16 * MB, 2)
    assert paths == ["/qt0", "/qt1"]
    sizes = []
    for path in paths:
        total = sum(
            inode.size for _p, inode in fs.walk(path) if inode.is_regular
        )
        sizes.append(total)
    assert min(sizes) > 0.5 * max(sizes)
    assert fsck(fs).clean
