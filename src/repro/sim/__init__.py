"""Discrete-event simulation kernel.

A minimal, dependency-free DES in the style of SimPy: generator-based
processes scheduled on a global event heap, plus the resource primitives
(:class:`~repro.sim.resources.Resource`, bounded
:class:`~repro.sim.resources.Store`) that the performance executor uses to
model CPU, disk, and tape contention.

The kernel is deliberately small; everything the backup experiments need is
expressible with ``Timeout``, ``Resource`` and ``Store``.  It schedules and
keeps no account of the work done: the executor's ``StageStats``
(:mod:`repro.perf.executor`) is the one record of it.
"""

from repro.sim.core import Event, Process, SimError, Simulation, Timeout
from repro.sim.resources import Resource, Store

__all__ = [
    "Event",
    "Process",
    "Resource",
    "SimError",
    "Simulation",
    "Store",
    "Timeout",
]
