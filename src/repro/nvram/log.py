"""The bounded NVRAM operation log.

Entries are whole file-system operations; capacity is counted in bytes the
way a real log would charge them (fixed per-op overhead plus payload).
Like WAFL's half-and-half scheme, the log is split into two halves: when
the filling half reaches capacity the file system takes a consistency
point, the full half is discarded, and logging switches to the other half
— so the system never stalls waiting for space unless both halves fill.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.errors import FilesystemError
from repro.obs.metrics import REGISTRY
from repro.units import MB

# Fixed bookkeeping bytes charged per logged operation.
OP_OVERHEAD = 128


class LoggedOp:
    """One replayable operation: a method name plus its arguments.

    ``epoch`` stamps the consistency-point count at logging time.  Replay
    skips ops whose epoch predates the mounted root's ``cp_count``: those
    ops are already durable — a crash that lands *between* the root
    structure write and :meth:`NvramLog.switch_halves` would otherwise
    replay them a second time onto state that already contains them.
    ``None`` (the default) means "always replay", preserving the behavior
    of ops constructed without an epoch.
    """

    __slots__ = ("method", "args", "kwargs", "nbytes", "epoch")

    def __init__(self, method: str, args: Tuple, kwargs: Dict[str, Any],
                 epoch: int = None):
        self.method = method
        self.args = args
        self.kwargs = kwargs
        self.epoch = epoch
        payload = 0
        for value in list(args) + list(kwargs.values()):
            if isinstance(value, (bytes, bytearray)):
                payload += len(value)
            elif isinstance(value, str):
                payload += len(value)
        self.nbytes = OP_OVERHEAD + payload

    def __repr__(self) -> str:
        return "<LoggedOp %s nbytes=%d epoch=%r>" % (
            self.method, self.nbytes, self.epoch)


class NvramLog:
    """A two-half bounded operation log."""

    def __init__(self, capacity: int = 32 * MB):
        if capacity < 2 * OP_OVERHEAD:
            raise FilesystemError("NVRAM too small to log anything")
        self.capacity = capacity
        self.half_capacity = capacity // 2
        self._halves: Tuple[List[LoggedOp], List[LoggedOp]] = ([], [])
        self._fill: List[int] = [0, 0]
        self._active = 0
        self.failed = False
        self.total_ops_logged = 0
        self.total_bytes_logged = 0

    # -- logging -----------------------------------------------------------

    def try_append(self, op: LoggedOp) -> bool:
        """Log ``op`` into the active half; False means the half is full
        and the caller must take a consistency point first."""
        if self.failed:
            # A failed NVRAM part logs nothing; the file system stays
            # consistent, only the un-flushed tail would be lost.
            return True
        if op.nbytes > self.half_capacity:
            raise FilesystemError(
                "operation (%d bytes) larger than half the NVRAM" % op.nbytes
            )
        if self._fill[self._active] + op.nbytes > self.half_capacity:
            return False
        self._halves[self._active].append(op)
        self._fill[self._active] += op.nbytes
        self.total_ops_logged += 1
        self.total_bytes_logged += op.nbytes
        return True

    def switch_halves(self) -> None:
        """Called at a consistency point: the current half's operations are
        now on disk, so discard them and start filling the other half."""
        if REGISTRY.enabled:
            REGISTRY.counter("nvram.flushes").inc()
            REGISTRY.counter("nvram.flushed_bytes").inc(
                self._fill[self._active])
        self._halves[self._active].clear()
        self._fill[self._active] = 0
        self._active ^= 1
        self._halves[self._active].clear()
        self._fill[self._active] = 0

    def pending_ops(self) -> List[LoggedOp]:
        """Operations not yet covered by a consistency point, in order."""
        other = self._active ^ 1
        return list(self._halves[other]) + list(self._halves[self._active])

    def clear(self) -> None:
        for half in self._halves:
            half.clear()
        self._fill = [0, 0]

    def fail(self) -> None:
        """Simulate NVRAM hardware failure: pending operations vanish."""
        self.failed = True
        self.clear()

    def __len__(self) -> int:
        return sum(len(half) for half in self._halves)


__all__ = ["LoggedOp", "NvramLog", "OP_OVERHEAD"]
