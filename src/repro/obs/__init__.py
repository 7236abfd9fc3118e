"""Observability plane: structured tracing, metrics, Chrome-trace export.

Everything here is disabled by default and designed so the *disabled*
path costs a single attribute check on a shared singleton — the sim
kernel, executor, and storage hot loops stay bit-identical and within
the wall-clock regression gates when no one is watching.
"""

from repro.obs.export import (
    export_chrome_trace,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    NullTracer,
    Tracer,
    get_tracer,
    read_jsonl,
    set_tracer,
)


def observe_failure(scope: str, error: BaseException) -> None:
    """Record an engine failure on the shared tracer and registry.

    Called from the backup engines' error paths so that a dump or restore
    that dies mid-stream (NoSpaceError, TapeError, ...) leaves an instant
    event and a counter bump behind instead of failing silently.
    """
    if REGISTRY.enabled:
        REGISTRY.counter("backup.errors").inc()
        REGISTRY.counter("backup.errors.%s" % scope).inc()
    tracer = get_tracer()
    if tracer.enabled:
        tracer.instant(
            "error:%s" % scope, cat="error", tid=scope,
            args={"type": type(error).__name__, "message": str(error)})


__all__ = [
    "observe_failure",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TRACE_SCHEMA_VERSION",
    "get_tracer",
    "set_tracer",
    "read_jsonl",
    "to_chrome_trace",
    "validate_chrome_trace",
    "export_chrome_trace",
]
