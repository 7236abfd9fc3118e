"""Byte-identity verification: recovered state versus the oracle.

Every comparison here is a content digest, not an object comparison:
two campaigns match when the bytes an operator could ever read back —
disk blocks, catalog files, tape cartridges — are identical.  Volume
digests hash each disk's non-zero blocks (parity included, so a sloppy
repair that fixed data but not parity is caught); catalog, journal and
media digests hash the persisted files byte-for-byte.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, List, Tuple

from repro.catalog.journal import journal_path


def volume_digest(volume) -> str:
    """Content digest of every disk in a volume, parity included.

    Reads the backing stores directly (``nonzero_blocks``), bypassing
    cache and reconstruction — a block that *would* reconstruct
    correctly but was never repaired in place still changes the digest,
    which is exactly the distinction chaos recovery must prove.
    """
    digest = hashlib.sha256()
    for group in volume.groups:
        for disk in list(group.data_disks) + [group.parity_disk]:
            for block, contents in disk.nonzero_blocks():
                digest.update(block.to_bytes(8, "big"))
                digest.update(contents)
            digest.update(b"|disk|")
        digest.update(b"|group|")
    return digest.hexdigest()


def file_digest(path: str) -> str:
    """Digest of one persisted file's bytes ("-" when absent)."""
    if not os.path.exists(path):
        return "-"
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def filesystem_digest(fs) -> str:
    """Digest of filesystem-visible recovery state beyond raw blocks.

    ``cp_count`` and ``clock_ticks`` catch a recovery that converged on
    content but took a different number of consistency points to get
    there; the snapshot list catches a leaked dump snapshot.
    """
    digest = hashlib.sha256()
    digest.update(volume_digest(fs.volume).encode())
    digest.update(b"|cp:%d" % fs.fsinfo.cp_count)
    digest.update(b"|clock:%d" % fs.fsinfo.clock_ticks)
    for record in sorted(fs.fsinfo.snapshots, key=lambda r: r.snap_id):
        digest.update(b"|snap:%d:%s:%d"
                      % (record.snap_id, record.name.encode(), record.created))
    return digest.hexdigest()


def campaign_state_digests(catalog_path: str, pool_path: str,
                           volume_paths: Dict[str, str]) -> Dict[str, str]:
    """Every persisted artifact of a finished campaign, digested.

    Keys: ``catalog``, ``journal`` (the catalog's commits since its
    last compaction), ``media``, and ``volume:<name>`` per saved
    volume.  Two campaigns whose digest maps are equal produced
    byte-identical catalogs, tape libraries, and volume images.
    """
    digests = {
        "catalog": file_digest(catalog_path),
        "journal": file_digest(journal_path(catalog_path)),
        "media": file_digest(pool_path),
    }
    for name, path in sorted(volume_paths.items()):
        digests["volume:%s" % name] = file_digest(path)
    return digests


def compare_digests(oracle: Dict[str, str],
                    recovered: Dict[str, str]) -> List[Tuple[str, str, str]]:
    """Mismatched entries as ``(key, oracle, recovered)``; empty == pass."""
    mismatches = []
    for key in sorted(set(oracle) | set(recovered)):
        left = oracle.get(key, "<absent>")
        right = recovered.get(key, "<absent>")
        if left != right:
            mismatches.append((key, left, right))
    return mismatches


__all__ = [
    "campaign_state_digests",
    "compare_digests",
    "file_digest",
    "filesystem_digest",
    "volume_digest",
]
