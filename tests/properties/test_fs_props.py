"""Property-based tests over the whole file system and backup stack."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.backup import (
    DumpDates,
    ImageDump,
    ImageRestore,
    LogicalDump,
    LogicalRestore,
    drain_engine,
    verify_trees,
)
from repro.errors import NoSpaceError
from repro.mirror import MirrorRelationship
from repro.units import MB
from repro.wafl.consts import BLOCK_SIZE, DOS_NAME_LEN
from repro.wafl.filesystem import WaflFilesystem
from repro.wafl.fsck import fsck, fsck_snapshot

from tests.conftest import make_drive, make_fs

_slow = settings(max_examples=15, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.data_too_large])


@_slow
@given(st.binary(max_size=3 * BLOCK_SIZE),
       st.integers(0, 2 * BLOCK_SIZE),
       st.binary(max_size=BLOCK_SIZE))
def test_write_read_semantics(initial, offset, patch):
    """File contents behave like a byte array with zero-fill extension."""
    fs = make_fs()
    fs.create("/f", initial)
    fs.write_file("/f", patch, offset)
    expected = bytearray(initial)
    if offset + len(patch) > len(expected):
        expected.extend(bytes(offset + len(patch) - len(expected)))
    expected[offset : offset + len(patch)] = patch
    assert fs.read_file("/f") == bytes(expected)


@_slow
@given(st.binary(max_size=2 * BLOCK_SIZE), st.integers(0, 3 * BLOCK_SIZE))
def test_truncate_semantics(initial, new_size):
    fs = make_fs()
    fs.create("/f", initial)
    fs.truncate("/f", new_size)
    expected = initial[:new_size].ljust(new_size, b"\0")
    assert fs.read_file("/f") == expected


class FilesystemMachine(RuleBasedStateMachine):
    """The paper's claim as one state machine.

    Namespace and data ops, snapshots, crashes and a full volume
    interleave with logical and image dumps, their restores and a
    mirror.  Every dump freezes its oracle as a copy-on-write clone of
    the file system; every restore must match its oracle and fsck clean,
    and two restores of the same tree, one per strategy, must match each
    other.  A dict model checks the live contents between dumps."""

    def __init__(self):
        super().__init__()
        self.fs = make_fs(blocks_per_disk=300)
        self.files = {}  # path -> inode key (hard links share one)
        self.data = {}  # inode key -> bytes
        self.symlinks = {}  # path -> link target
        self.dirs = ["/"]
        self.snapshot_models = {}  # snapshot name -> {path: bytes} it froze
        self.counter = 0
        self.version = 0  # bumped by every op that may change the tree
        self.dumpdates = DumpDates()
        self.logical_chain = []  # (level, drive), oldest first
        self.image_chain = []  # (drive, blocks dumped), oldest first
        self.image_base = None  # the chain's snapshot: the next B - A's A
        self.image_with_snapshots = False  # the chain's full dump's
        self.oracles = {}  # strategy -> (version, clone) at its last dump
        self.mirror = None

    # -- helpers ---------------------------------------------------------

    def _name(self, prefix):
        self.counter += 1
        return "%s%d" % (prefix, self.counter)

    def _new_path(self, data, prefix):
        parent = data.draw(st.sampled_from(self.dirs), label="parent")
        return parent.rstrip("/") + "/" + self._name(prefix)

    def _pick(self, data, paths, label="path"):
        return data.draw(st.sampled_from(sorted(paths)), label=label)

    def _entries(self):
        """Every path but the root's."""
        return list(self.files) + list(self.symlinks) + self.dirs[1:]

    def _apply(self, op, *args, **kwargs):
        """Run one op that may change the tree; False when the volume is
        full, which leaves the op undone as a whole."""
        self.version += 1
        try:
            op(*args, **kwargs)
        except NoSpaceError:
            return False
        return True

    def _create(self, path, content):
        if not self._apply(self.fs.create, path, content):
            if not self.fs.exists(path):
                return  # no room in the directory
            content = b""  # the name landed, the data did not
        self.files[path] = path  # a new inode's key: its first name
        self.data[path] = content

    def _freeze(self, strategy):
        self.oracles[strategy] = (self.version, self.fs.clone_volume())

    def _restore(self, strategy):
        """Restore ``strategy``'s chain onto a fresh volume: it must hold
        the tree the chain's last dump froze, and fsck clean."""
        if strategy == "logical":
            # Onto another RAID geometry, threading the symbol table.
            target = make_fs(ngroups=1, ndata=3, blocks_per_disk=1600,
                             name="dst")
            symtab = None
            for _level, drive in self.logical_chain:
                symtab = drain_engine(LogicalRestore(
                    target, drive, symtab=symtab).run()).symtab
        else:
            volume = self.fs.volume.clone_empty()
            for drive, blocks in self.image_chain:
                assert drain_engine(ImageRestore(volume, drive).run()) \
                    .blocks == blocks
            target = WaflFilesystem.mount(volume)
        oracle = self.oracles[strategy][1]
        assert verify_trees(oracle, target, check_mtime=True) == []
        report = fsck(target, check_parity=True)
        assert report.clean, report.errors
        return oracle, target

    def _cross_check(self, strategy, target):
        """Each strategy is the other's oracle: when the other's last dump
        froze the same tree, its restore must match ``target``."""
        version = self.oracles[strategy][0]
        for other, (other_version, _oracle) in self.oracles.items():
            if other != strategy and other_version == version:
                _oracle, other_target = self._restore(other)
                assert verify_trees(other_target, target,
                                    check_mtime=True) == []

    # -- data ------------------------------------------------------------

    @rule(data=st.data(), content=st.binary(max_size=9000))
    def create_file(self, data, content):
        self._create(self._new_path(data, "f"), content)

    @rule(data=st.data(), mb=st.integers(1, 12))
    def fill(self, data, mb):
        path = self._new_path(data, "big")
        words = (np.arange(mb * MB // 4, dtype=np.uint32)
                 + np.uint32(self.counter << 20))
        self._create(path, words.tobytes())

    @precondition(lambda self: self.files)
    @rule(data=st.data(), content=st.binary(min_size=1, max_size=5000),
          offset=st.integers(0, 8000))
    def overwrite(self, data, content, offset):
        path = self._pick(data, self.files)
        if not self._apply(self.fs.write_file, path, content, offset):
            return
        key = self.files[path]
        current = bytearray(self.data[key])
        if offset + len(content) > len(current):
            current.extend(bytes(offset + len(content) - len(current)))
        current[offset : offset + len(content)] = content
        self.data[key] = bytes(current)

    @precondition(lambda self: self.files)
    @rule(data=st.data(), size=st.integers(0, 6000))
    def truncate(self, data, size):
        path = self._pick(data, self.files)
        if not self._apply(self.fs.truncate, path, size):
            return
        key = self.files[path]
        self.data[key] = self.data[key][:size].ljust(size, b"\0")

    @precondition(lambda self: self.files or self.symlinks)
    @rule(data=st.data())
    def delete(self, data):
        path = self._pick(data, list(self.files) + list(self.symlinks))
        if not self._apply(self.fs.unlink, path):
            return
        if self.symlinks.pop(path, None) is None:
            key = self.files.pop(path)
            if key not in self.files.values():
                del self.data[key]

    # -- namespace -------------------------------------------------------

    @rule(data=st.data())
    def mkdir(self, data):
        path = self._new_path(data, "d")
        if self._apply(self.fs.mkdir, path):
            self.dirs.append(path)

    @precondition(lambda self: self.files)
    @rule(data=st.data())
    def link(self, data):
        existing = self._pick(data, self.files, label="existing")
        path = self._new_path(data, "h")
        if self._apply(self.fs.link, existing, path):
            self.files[path] = self.files[existing]

    @rule(data=st.data(),
          points_to=st.text(st.characters(min_codepoint=33,
                                          max_codepoint=126),
                            min_size=1, max_size=40))
    def symlink(self, data, points_to):
        path = self._new_path(data, "s")
        if self._apply(self.fs.symlink, path, points_to):
            self.symlinks[path] = points_to

    @precondition(lambda self: self._entries())
    @rule(data=st.data())
    def rename(self, data):
        old = self._pick(data, self._entries(), label="old")
        inside = old + "/"
        parents = [d for d in self.dirs
                   if d != old and not d.startswith(inside)]
        parent = data.draw(st.sampled_from(parents), label="parent")
        new = parent.rstrip("/") + "/" + self._name("r")
        if not self._apply(self.fs.rename, old, new):
            return

        def moved(path):
            if path == old or path.startswith(inside):
                return new + path[len(old):]
            return path

        self.files = {moved(p): key for p, key in self.files.items()}
        self.symlinks = {moved(p): t for p, t in self.symlinks.items()}
        self.dirs = [moved(p) for p in self.dirs]

    @rule(data=st.data(), perms=st.integers(0, 0o7777),
          uid=st.integers(0, 2**16),
          dos_name=st.binary(max_size=DOS_NAME_LEN).map(
              lambda name: name.rstrip(b"\0")),
          dos_bits=st.integers(0, 0xFF), dos_time=st.integers(0, 2**40))
    def set_attrs(self, data, perms, uid, dos_name, dos_bits, dos_time):
        path = self._pick(data, self._entries() + ["/"])
        self._apply(self.fs.set_attrs, path, perms=perms, uid=uid,
                    dos_name=dos_name, dos_bits=dos_bits, dos_time=dos_time)

    @rule(data=st.data(), acl=st.binary(max_size=200))
    def set_acl(self, data, acl):
        path = self._pick(data, self._entries() + ["/"])
        self._apply(self.fs.set_acl, path, acl)

    # -- snapshots and crashes -------------------------------------------

    @rule()
    def checkpoint(self):
        self.fs.consistency_point()

    @precondition(lambda self: len(self.snapshot_models) < 4)
    @rule()
    def snapshot_create(self):
        name = self._name("snap")
        self.fs.snapshot_create(name)
        self.snapshot_models[name] = {
            path: self.data[key] for path, key in self.files.items()}

    @precondition(lambda self: self.snapshot_models)
    @rule(data=st.data())
    def snapshot_delete(self, data):
        name = self._pick(data, self.snapshot_models, label="snapshot")
        self.fs.snapshot_delete(name)
        del self.snapshot_models[name]

    @rule()
    def crash_and_remount(self):
        self.fs.consistency_point()
        volume = self.fs.volume
        self.fs.crash()
        self.fs = WaflFilesystem.mount(volume)
        if self.mirror is not None:
            self.mirror.source = self.fs

    # -- the two strategies ----------------------------------------------

    @rule(incremental=st.booleans())
    def logical_dump(self, incremental):
        """Level 0, or the next level (at most 9) against the chain."""
        level = 0
        if incremental and self.logical_chain:
            level = min(self.logical_chain[-1][0] + 1, 9)
        drive = make_drive("level%d" % level)
        drain_engine(LogicalDump(self.fs, drive, level=level,
                                 dumpdates=self.dumpdates).run())
        self.logical_chain = [link for link in self.logical_chain
                              if link[0] < level] + [(level, drive)]
        self._freeze("logical")

    @rule(incremental=st.booleans(), include_snapshots=st.booleans())
    def image_dump(self, incremental, include_snapshots):
        """``B - A`` against the chain's snapshot, or a full dump, with or
        without the volume's snapshots; its snapshot is the next base."""
        drive = make_drive("image")
        base = self.image_base if incremental else None
        name = self._name("img")
        result = drain_engine(ImageDump(
            self.fs, drive, snapshot_name=name, base_snapshot=base,
            include_snapshots=include_snapshots and base is None).run())
        assert result.incremental == (base is not None)
        assert result.blocks > 0 or result.incremental
        if self.image_base is not None:
            self.fs.snapshot_delete(self.image_base)
        if base is None:
            self.image_chain = []
            self.image_with_snapshots = include_snapshots
        self.image_chain.append((drive, result.blocks))
        self.image_base = name
        self._freeze("image")

    @precondition(lambda self: self.logical_chain)
    @rule()
    def restore_logical(self):
        _oracle, target = self._restore("logical")
        self._cross_check("logical", target)

    @precondition(lambda self: self.image_chain)
    @rule()
    def restore_image(self):
        oracle, target = self._restore("image")
        if len(self.image_chain) == 1 and self.image_with_snapshots:
            names = {record.name for record in target.snapshots()}
            for record in oracle.snapshots():
                assert record.name in names
                assert verify_trees(oracle.snapshot_view(record.name),
                                    target.snapshot_view(record.name),
                                    check_mtime=True) == []
                report = fsck_snapshot(target, record.name)
                assert report.clean, report.errors
        self._cross_check("image", target)

    @rule()
    def mirror_update(self):
        """A mirror transfer is an image dump of ``B - A`` restored onto
        the replica; the replica stays mountable, fsck-clean and ready
        for the next update."""
        if self.mirror is None:
            self.mirror = MirrorRelationship(self.fs,
                                             self.fs.volume.clone_empty())
            assert self.mirror.initialize().kind == "initialize"
        else:
            assert self.mirror.update().kind == "update"
        replica = self.mirror.read_replica()
        assert verify_trees(self.fs, replica, check_mtime=True) == []
        report = fsck(replica, check_parity=True)
        assert report.clean, report.errors
        assert [record.name for record in self.fs.snapshots()
                if record.name.startswith("mirror.")] == [self.mirror.baseline]

    # -- invariants ------------------------------------------------------

    @invariant()
    def contents_match_model(self):
        for path, key in self.files.items():
            assert self.fs.read_file(path) == self.data[key]
        for path, target in self.symlinks.items():
            assert self.fs.readlink(path) == target

    @invariant()
    def consistency_point_persists_the_whole_block_map(self):
        """Whatever ran last, a consistency point leaves no changed map
        block behind: on a twin of the live system, crash -> mount reads
        back the words the twin held, fsck (parity too) is clean and
        every snapshot still holds the tree it froze.  The twin, not the
        live system: fsck checkpoints a dirty file system, which would
        hide what ``crash_and_remount`` must lose."""
        twin = self.fs.clone_volume()
        twin.consistency_point()
        words = twin.blockmap.words.copy()
        volume = twin.volume
        twin.crash()
        mounted = WaflFilesystem.mount(volume)
        assert np.array_equal(mounted.blockmap.words, words)
        report = fsck(mounted, check_parity=True)
        assert report.clean, report.errors
        for name, frozen in self.snapshot_models.items():
            report = fsck_snapshot(mounted, name)
            assert report.clean, report.errors
            view = mounted.snapshot_view(name)
            for path, data in frozen.items():
                assert view.read_file(path) == data

    def teardown(self):
        report = fsck(self.fs)
        assert report.clean, report.errors


TestFilesystemMachine = FilesystemMachine.TestCase
TestFilesystemMachine.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
