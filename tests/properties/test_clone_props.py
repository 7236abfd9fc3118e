"""Property tests: copy-on-write clones behave exactly like deep copies.

The COW chunk store (``VirtualDisk.clone``) promises deepcopy semantics —
contents, fault set, counters — while sharing materialized chunks until
first write.  These tests drive random interleavings of writes, clones,
and fault injection against a ``copy.deepcopy`` oracle, on the disk
itself and through the full volume clone chain.
"""

import copy

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.raid.layout import make_geometry
from repro.raid.volume import RaidVolume
from repro.storage.disk import VirtualDisk

BS = 512
NBLOCKS = 96

_fast = settings(max_examples=40, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _block(payload: bytes) -> bytes:
    return (payload * (BS // max(1, len(payload)) + 1))[:BS]


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, NBLOCKS - 1),
                  st.binary(min_size=0, max_size=8)),
        st.tuples(st.just("write_run"), st.integers(0, NBLOCKS - 9),
                  st.binary(min_size=1, max_size=8)),
        st.tuples(st.just("clone"), st.integers(0, 3), st.just(b"")),
        st.tuples(st.just("fail"), st.integers(0, NBLOCKS - 1), st.just(b"")),
        st.tuples(st.just("heal"), st.integers(0, NBLOCKS - 1), st.just(b"")),
    ),
    min_size=1, max_size=60,
)


def _apply(disk, op, arg, payload):
    if op == "write":
        disk.write_block(arg, _block(payload) if payload else bytes(BS))
    elif op == "write_run":
        disk.write_run(arg, _block(payload) * 4)
    elif op == "fail":
        disk.fail_block(arg)
    elif op == "heal":
        disk.heal_block(arg)


def _snapshot(disk):
    """Full observable state: contents (``None`` where the block is
    unreadable) and counters."""
    contents = []
    for block in range(disk.nblocks):
        try:
            contents.append(disk.read_block(block))
        except StorageError:
            contents.append(None)
    return contents, disk.reads, disk.writes


@_fast
@given(_ops)
def test_clone_interleavings_match_deepcopy_oracle(ops):
    disks = [VirtualDisk(NBLOCKS, BS, name="d")]
    oracles = [copy.deepcopy(disks[0])]
    for op, arg, payload in ops:
        if op == "clone":
            source = arg % len(disks)
            disks.append(disks[source].clone())
            oracles.append(copy.deepcopy(oracles[source]))
            continue
        target = arg % len(disks) if op != "write" else len(disks) - 1
        # Writes go to the newest disk; faults/heals to a varying one,
        # so mutations land both before and after clone points.
        index = len(disks) - 1 if op in ("write", "write_run") else target
        _apply(disks[index], op, arg, payload)
        _apply(oracles[index], op, arg, payload)
    for disk, oracle in zip(disks, oracles):
        assert _snapshot(disk) == _snapshot(oracle)


@_fast
@given(_ops)
def test_clone_mutations_never_leak_between_sides(ops):
    base = VirtualDisk(NBLOCKS, BS, name="base")
    for block in range(0, NBLOCKS, 7):
        base.write_block(block, _block(b"seed%d" % block))
    frozen = copy.deepcopy(base)
    clone = base.clone()
    for op, arg, payload in ops:
        if op == "clone":
            clone = clone.clone()  # deeper chains still share with base
            continue
        _apply(clone, op, arg, payload)
    # The source observes none of the clone's writes or faults.
    assert _snapshot(base) == _snapshot(frozen)


@_fast
@given(st.lists(st.tuples(st.integers(0, 239),
                          st.binary(min_size=1, max_size=8)),
                min_size=1, max_size=25))
def test_volume_clone_chain_matches_deepcopy(writes):
    volume = RaidVolume(make_geometry(2, 3, 40), name="v")
    for block, payload in writes[: len(writes) // 2]:
        volume.write_block(block, (payload * 4096)[:4096])
    clone = volume.clone()
    oracle = copy.deepcopy(volume)
    for block, payload in writes[len(writes) // 2 :]:
        clone.write_block(block, (payload * 4096)[:4096])
    assert clone.verify_parity()
    # Source untouched by clone writes; clone readable everywhere.
    for block, _payload in writes:
        assert volume.read_block(block) == oracle.read_block(block)
