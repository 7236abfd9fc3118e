"""verify_trees: every kind of difference, and what it holds in memory."""

import tracemalloc

from repro.backup.verify import verify_trees
from repro.wafl.filesystem import WaflFilesystem

from tests.conftest import make_volume

ATTRIBUTES = {
    "perms": dict(perms=0o600),
    "uid": dict(uid=7),
    "gid": dict(gid=8),
    "dos_name": dict(dos_name=b"OTHER~1.TXT"),
    "dos_bits": dict(dos_bits=0x20),
}


def _format():
    # A constant clock: every mtime is equal unless a test sets one, and
    # no buffer cache: what verify_trees reads, only verify_trees holds.
    return WaflFilesystem.format(make_volume(), clock=lambda: 1000,
                                 cache_blocks=0)


def _corpus(target: bool) -> WaflFilesystem:
    """One tree (``target=False``) and the same tree with one difference
    of every kind verify_trees reports (``target=True``)."""
    fs = _format()
    fs.mkdir("/d")
    fs.create("/d/same", b"s" * 10000)
    fs.create("/d/extra" if target else "/d/missing", b"m")
    if target:
        fs.mkdir("/d/type")
    else:
        fs.create("/d/type", b"a file here, a directory there")
    fs.create("/d/size", b"x" * (5001 if target else 5000))
    fs.create("/d/data", b"a" * 8191 + (b"b" if target else b"a"))
    fs.symlink("/d/symlink", "/d/data" if target else "/d/same")
    # nlink (and, through it, the link partition).
    fs.create("/d/nlink", b"n")
    if target:
        fs.create("/d/nlink2", b"n")
    else:
        fs.link("/d/nlink", "/d/nlink2")
    # The same four names in pairs either way: every nlink is 2, only
    # the partition differs.
    fs.create("/d/pair1", b"p")
    fs.create("/d/pair2", b"p")
    fs.link("/d/pair1", "/d/pair3" if target else "/d/pair4")
    fs.link("/d/pair2", "/d/pair4" if target else "/d/pair3")
    for field, change in ATTRIBUTES.items():
        fs.create("/d/attr-%s" % field, field.encode())
        if target:
            fs.set_attrs("/d/attr-%s" % field, **change)
    fs.create("/d/attr-acl", b"acl")
    fs.set_acl("/d/attr-acl", b"ACL-B" if target else b"ACL-A")
    fs.create("/d/mtime", b"t")
    if target:
        fs.set_attrs("/d/mtime", mtime=555)
    fs.consistency_point()
    return fs


#: What the tree-at-a-time verify_trees returned for this corpus.
EXPECTED = [
    "missing in target: /d/missing",
    "extra in target: /d/extra",
    "/d/attr-acl: acl b'ACL-A' != b'ACL-B'",
    "/d/attr-dos_bits: dos_bits 0 != 32",
    "/d/attr-dos_name: dos_name b'' != b'OTHER~1.TXT'",
    "/d/attr-gid: gid 0 != 8",
    "/d/attr-perms: perms 420 != 384",
    "/d/attr-uid: uid 0 != 7",
    "/d/data: data differs",
    "/d/mtime: mtime 1000 != 555",
    "/d/nlink: nlink 2 != 1",
    "/d/nlink2: nlink 2 != 1",
    "/d/size: size 5000 != 5001",
    "/d/symlink: symlink '/d/same' != '/d/data'",
    "/d/type: type 1 != 2",
    "hard-link structure differs",
]


def test_one_difference_of_every_kind_is_reported_in_order():
    source, target = _corpus(target=False), _corpus(target=True)
    assert verify_trees(source, target) == EXPECTED
    assert verify_trees(source, target, source_root="/d", target_root="/d") \
        == [line.replace("/d/", "/", 1) for line in EXPECTED]
    assert verify_trees(source, target, check_mtime=False) == [
        line for line in EXPECTED if ": mtime " not in line]
    assert verify_trees(source, target, check_attrs=False) == [
        line for line in EXPECTED
        if not line.startswith(("/d/attr-", "/d/mtime"))]
    assert verify_trees(
        source, target,
        ignore=["/d/missing", "/d/extra", "/d/data", "/d/type"]) == [
        line for line in EXPECTED
        if not line.endswith(("/d/missing", "/d/extra"))
        and not line.startswith(("/d/data", "/d/type"))]
    assert verify_trees(source, source) == []
    assert verify_trees(target, target) == []


def _bulky():
    fs = _format()
    sizes = [1 << 20] + [200_000 + 1000 * index for index in range(40)]
    fs.mkdir("/d")
    for index, size in enumerate(sizes):
        fs.create("/d/f%02d" % index, bytes([index + 1]) * size)
    fs.consistency_point()
    return fs, sizes


def test_verify_holds_one_file_pair_not_two_trees():
    (source, sizes), (target, _) = _bulky(), _bulky()
    assert sum(sizes) >= 8 << 20
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        assert verify_trees(source, target) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The file in hand on one side, and the other side's being read (its
    # assembly buffer and the bytes made of it) — plus the metadata
    # index, allowed a generous 4 KB a path.  Two resident trees would
    # be sum(sizes) * 2.
    assert peak - before < 3 * max(sizes) + 4096 * (len(sizes) + 2)
