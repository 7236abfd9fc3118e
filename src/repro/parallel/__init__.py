"""The parallel evaluation plane: process-pool task fan-out.

Every experiment in :mod:`repro.bench` is an independent simulation over
its own environment, so ``run_all``'s grid is embarrassingly parallel.
:class:`~repro.parallel.pool.TaskPool` runs picklable task specs across
forked workers (or in this process) and returns the values in
task-declaration order, so EXPERIMENTS.md is byte-identical whatever the
worker count or completion order.
"""

from repro.parallel.pool import (
    TaskError,
    TaskPool,
    TaskSpec,
    fork_available,
)

__all__ = [
    "TaskError",
    "TaskPool",
    "TaskSpec",
    "fork_available",
]
