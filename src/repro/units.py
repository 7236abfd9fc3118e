"""Size and time units plus human-readable formatting.

The library follows the paper's conventions: KB/MB/GB are powers of two
(the paper's "4 KB blocks" are 4096 bytes) and throughput is reported in
MB/s and GB/hour exactly as in Tables 2-5.
"""

from __future__ import annotations

KB = 1024
MB = 1024 * KB
GB = 1024 * MB
TB = 1024 * GB

SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0


def fmt_bytes(n: float) -> str:
    """Human-readable byte count: ``fmt_bytes(5 * MB) == '5.0 MB'``."""
    value = float(n)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(value) < 1024.0 or unit == "TB":
            if unit == "B":
                return "%d B" % int(value)
            return "%.1f %s" % (value, unit)
        value /= 1024.0
    raise AssertionError("unreachable")


def fmt_duration(seconds: float) -> str:
    """Human-readable duration: hours for long spans, else min/sec."""
    if seconds >= HOUR:
        return "%.2f h" % (seconds / HOUR)
    if seconds >= MINUTE:
        return "%.1f min" % (seconds / MINUTE)
    return "%.1f s" % seconds


def mb_per_s(nbytes: float, seconds: float) -> float:
    """Throughput in MB/s (0 for zero-length intervals)."""
    if seconds <= 0:
        return 0.0
    return nbytes / MB / seconds


def gb_per_hour(nbytes: float, seconds: float) -> float:
    """Throughput in GB/hour (0 for zero-length intervals)."""
    if seconds <= 0:
        return 0.0
    return nbytes / GB / (seconds / HOUR)


__all__ = [
    "GB",
    "HOUR",
    "KB",
    "MB",
    "MINUTE",
    "SECOND",
    "TB",
    "fmt_bytes",
    "fmt_duration",
    "gb_per_hour",
    "mb_per_s",
]
