"""Persistence: simulator state in host files, all in one container.

A :class:`~repro.raid.volume.RaidVolume` (every member disk, parity
included, so a reloaded volume is bit-identical and still
reconstruction-capable), a bench environment, a fleet tenant, a tape
stacker and a media pool's cartridges are all written as::

    magic | u32 version | header frame | payload frames | EOF

Every frame is ``u64 length | zlib stream``.  The header is JSON: its
``kind`` names what the file is, its ``volumes`` (name, geometry) and
``cartridges`` (label, capacity) lists announce the payload frames — one
:meth:`~repro.storage.disk.VirtualDisk.pack_chunks` image per member
disk (a column of its group's stripe store), then one byte stream per
cartridge (its records end to end; the file does not say where one
record stopped and the next began).  Equal state makes equal files,
which the chaos and determinism gates compare byte for byte.
Writes replace the file atomically; every way a file can be wrong is a
:class:`~repro.errors.StorageError`, which the CLI prints as one line.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import zlib
from typing import BinaryIO, Dict, List, Sequence, Tuple

from repro.errors import StorageError
from repro.backup.physical.image import pack_geometry, unpack_geometry
from repro.raid.volume import RaidVolume
from repro.storage.tape import TapeCartridge, TapeDrive, TapeStacker

_MAGIC = b"RPROCNTR"
# The one format version.  Any change to the container layout, the
# header schema or the disk image bumps it; the reader refuses all others.
# 2: the disk image lists non-zero blocks by disk-wide index and no
# longer records the store's chunk size.
CONTAINER_VERSION = 2
_PREAMBLE = struct.Struct("<8sI")
_FRAME = struct.Struct("<Q")


def _write_frame(handle: BinaryIO, payload) -> None:
    """One frame from ``payload``: a buffer, or a list of buffers (a
    cartridge's records) deflated as the one stream their join would be —
    the same bytes, without building the join."""
    # Level 1: these containers are rewritten on every commit, so write
    # speed beats ratio; decompression accepts any level unchanged.
    deflater = zlib.compressobj(level=1)
    compressed = [deflater.compress(piece) for piece in
                  (payload if isinstance(payload, list) else [payload])]
    compressed.append(deflater.flush())
    handle.write(_FRAME.pack(sum(map(len, compressed))))
    handle.writelines(compressed)


def _read_frame(handle: BinaryIO, path: str) -> bytes:
    prefix = handle.read(_FRAME.size)
    if len(prefix) != _FRAME.size:
        raise StorageError("%s: truncated where a frame should start" % path)
    (length,) = _FRAME.unpack(prefix)
    # Checked against the file, not by reading: a damaged length must
    # not become a multi-exabyte allocation.
    left = os.fstat(handle.fileno()).st_size - handle.tell()
    if length > left:
        raise StorageError("%s: frame announces %d bytes, file holds %d"
                           % (path, length, left))
    compressed = handle.read(length)
    inflater = zlib.decompressobj()
    try:
        payload = inflater.decompress(compressed)
    except zlib.error as exc:
        raise StorageError("%s: damaged frame (%s)" % (path, exc))
    if not inflater.eof or inflater.unused_data:
        raise StorageError("%s: frame is not one whole zlib stream" % path)
    return payload


def _disks(volume: RaidVolume) -> List:
    return [disk for group in volume.groups
            for disk in group.data_disks + [group.parity_disk]]


def _write_container(path: str, kind: str, extra: Dict,
                     volumes: Sequence[RaidVolume] = (),
                     cartridges: Sequence[TapeCartridge] = ()) -> int:
    """Atomically (re)write ``path``; returns the bytes written."""
    header = dict(
        extra, kind=kind,
        volumes=[{"name": volume.name,
                  "geometry": pack_geometry(volume.geometry).hex()}
                 for volume in volumes],
        cartridges=[{"label": cartridge.label,
                     "capacity": cartridge.capacity}
                    for cartridge in cartridges])
    temp = path + ".tmp"
    try:
        with open(temp, "wb") as handle:
            handle.write(_PREAMBLE.pack(_MAGIC, CONTAINER_VERSION))
            _write_frame(handle,
                         json.dumps(header, sort_keys=True).encode("utf-8"))
            for volume in volumes:
                for disk in _disks(volume):
                    _write_frame(handle, disk.pack_chunks())
            for cartridge in cartridges:
                _write_frame(handle, list(cartridge.records()))
            size = handle.tell()
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temp)
        raise
    return size


def _read_container(path: str, kind: str
                    ) -> Tuple[Dict, List[RaidVolume], List[TapeCartridge]]:
    """``(header, volumes, cartridges)`` of the ``kind`` container at ``path``."""
    with open(path, "rb") as handle:
        preamble = handle.read(_PREAMBLE.size)
        if len(preamble) != _PREAMBLE.size \
                or not preamble.startswith(_MAGIC):
            raise StorageError("%s is not a repro container" % path)
        version = _PREAMBLE.unpack(preamble)[1]
        if version != CONTAINER_VERSION:
            raise StorageError(
                "%s is container version %d; this reader reads version %d"
                % (path, version, CONTAINER_VERSION))
        frame = _read_frame(handle, path)
        try:
            header = json.loads(frame.decode("utf-8"))
            if header["kind"] != kind:
                raise StorageError("%s is a %s container, not a %s container"
                                   % (path, header["kind"], kind))
            volumes = [
                RaidVolume(unpack_geometry(bytes.fromhex(entry["geometry"]))[0],
                           name=entry["name"])
                for entry in header["volumes"]]
            cartridges = [
                TapeCartridge(capacity=entry["capacity"], label=entry["label"])
                for entry in header["cartridges"]]
        except (KeyError, TypeError, ValueError, struct.error) as exc:
            raise StorageError("%s: header does not describe a %s container"
                               " (%r)" % (path, kind, exc))
        for volume in volumes:
            for disk in _disks(volume):
                disk.unpack_chunks(_read_frame(handle, path))
        for cartridge in cartridges:
            cartridge.append(_read_frame(handle, path))
        if handle.read(1):
            raise StorageError("%s: bytes after the last frame" % path)
    return header, volumes, cartridges


def save_volume(volume: RaidVolume, path: str) -> int:
    """Write the whole volume (data + parity) to ``path``; returns bytes."""
    return _write_container(path, "volume", {}, volumes=[volume])


def load_volume(path: str) -> RaidVolume:
    """Rebuild a volume saved by :func:`save_volume`."""
    volumes = _read_container(path, "volume")[1]
    if len(volumes) != 1:
        raise StorageError("%s holds %d volumes, not one"
                           % (path, len(volumes)))
    return volumes[0]


def save_env_container(path: str, header: Dict, volumes: List[RaidVolume],
                       kind: str = "env") -> int:
    """Write a JSON header plus whole volumes; returns bytes.

    What a run starts from: any number of volumes at a consistency
    point, to be mounted, and an arbitrary JSON ``header`` for what a
    mount cannot recover — for kind ``env`` the bench builder's
    configuration and trees (``save_env``/``load_env``), for kind
    ``tenant`` a fleet tenant's tree and kept snapshots (``volume.bin``).
    """
    return _write_container(path, kind, {kind: header}, volumes=volumes)


def load_env_container(path: str, kind: str = "env"
                       ) -> Tuple[Dict, List[RaidVolume]]:
    """Rebuild ``(header, volumes)`` saved by :func:`save_env_container`."""
    header, volumes, _ = _read_container(path, kind)
    return header.get(kind, {}), volumes


def save_tape(drive: TapeDrive, path: str) -> int:
    """Write a drive's stacker (all cartridges) to ``path``."""
    stacker = drive.stacker
    return _write_container(path, "tape", {"stacker": stacker.name},
                            cartridges=stacker.cartridges)


def load_tape(path: str) -> TapeDrive:
    """Rebuild a tape drive saved by :func:`save_tape` (rewound)."""
    header, _, cartridges = _read_container(path, "tape")
    name = header.get("stacker", "")
    for index, cartridge in enumerate(cartridges):
        # A stacker is an anonymous magazine: tapes are known by slot.
        cartridge.label = "%s/slot%d" % (name, index)
    stacker = TapeStacker(cartridges, name=name)
    used_count = sum(1 for c in cartridges if c.used)
    stacker.next_slot = used_count
    drive = TapeDrive(stacker, name=name)
    if used_count and cartridges[used_count - 1].remaining > 0:
        # Resume appends on the partially written final cartridge,
        # exactly as the unreloaded drive would — otherwise later
        # writes skip its tail and the logical stream diverges.
        stacker.next_slot = used_count - 1
        drive.loaded = stacker.load_next()
    return drive


def save_media(cartridges, path: str) -> int:
    """Write a media set (labelled cartridges) to ``path``; returns bytes.

    Unlike :func:`load_tape`, :func:`load_media` keeps each cartridge's
    own label — the backup manager's media pool is an inventory of
    individually tracked tapes, not an anonymous magazine.
    """
    return _write_container(path, "media", {}, cartridges=list(cartridges))


def load_media(path: str):
    """Rebuild the cartridge list saved by :func:`save_media`."""
    return _read_container(path, "media")[2]


__all__ = [
    "CONTAINER_VERSION",
    "load_env_container",
    "load_media",
    "load_tape",
    "load_volume",
    "save_env_container",
    "save_media",
    "save_tape",
    "save_volume",
]
