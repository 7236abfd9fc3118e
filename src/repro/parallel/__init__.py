"""The parallel evaluation plane: process-pool task fan-out.

Every experiment in :mod:`repro.bench` is an independent simulation over
its own freshly built environment, so the evaluation plane is
embarrassingly parallel.  :class:`~repro.parallel.pool.TaskPool` runs
picklable task specs across worker processes and reassembles the results
in task-declaration order, so any consumer (EXPERIMENTS.md) sees
byte-identical output regardless of worker count or completion order.
Campaign days and fleet batches use the same pool on its in-process path.
"""

from repro.parallel.pool import (
    TaskError,
    TaskPool,
    TaskResult,
    TaskSpec,
    fork_available,
)

__all__ = [
    "TaskError",
    "TaskPool",
    "TaskResult",
    "TaskSpec",
    "fork_available",
]
