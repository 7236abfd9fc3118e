"""SnapMirror-style replication tests (Section 6 future work)."""

import pytest

from repro.errors import BackupError, IncrementalError

from tests.conftest import make_fs, make_volume, populate_small_tree
from repro.mirror import MirrorRelationship


def make_pair():
    source = make_fs(name="src")
    populate_small_tree(source)
    target_volume = source.volume.clone_empty()
    return source, target_volume


def test_update_ships_only_changes():
    source, target_volume = make_pair()
    mirror = MirrorRelationship(source, target_volume)
    first = mirror.initialize()
    source.write_file("/docs/readme.txt", b"edited", 0)
    source.create("/fresh", b"f" * 5000)
    update = mirror.update()
    assert update.kind == "update"
    assert update.blocks < first.blocks
    replica = mirror.read_replica()
    assert replica.read_file("/fresh") == b"f" * 5000
    assert replica.read_file("/docs/readme.txt")[:6] == b"edited"


def test_geometry_mismatch_rejected():
    source = make_fs(name="src")
    wrong = make_volume(ngroups=1, ndata=3, blocks_per_disk=500)
    with pytest.raises(BackupError):
        MirrorRelationship(source, wrong)


def test_double_initialize_rejected():
    source, target_volume = make_pair()
    mirror = MirrorRelationship(source, target_volume)
    mirror.initialize()
    with pytest.raises(BackupError):
        mirror.initialize()


def test_update_before_initialize_rejected():
    source, target_volume = make_pair()
    mirror = MirrorRelationship(source, target_volume)
    with pytest.raises(BackupError):
        mirror.update()


def test_tampered_replica_refuses_update():
    source, target_volume = make_pair()
    mirror = MirrorRelationship(source, target_volume)
    mirror.initialize()
    # Someone mounts the replica read-write and changes it.
    replica = mirror.read_replica()
    replica.create("/rogue", b"should not be here")
    replica.consistency_point()
    source.create("/more", b"m")
    with pytest.raises(IncrementalError):
        mirror.update()


def test_transfer_log(
):
    source, target_volume = make_pair()
    mirror = MirrorRelationship(source, target_volume)
    mirror.initialize()
    source.create("/x", b"1")
    mirror.update()
    kinds = [t.kind for t in mirror.transfers]
    assert kinds == ["initialize", "update"]
    assert all(t.bytes_transferred > 0 for t in mirror.transfers)
