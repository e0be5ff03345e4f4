"""repro.obs — metrics, tracing, and protocol introspection.

The measurement foundation for the reproduction: a process-wide
:class:`MetricsRegistry` of counters/gauges/histograms that every layer
of the stack reports into (MMU faults, twin creations, diff runs, RLE
bytes, swizzles, transport bytes and round trips, server protocol
handling, poller mode transitions), a deterministic :class:`Tracer`
built on the ``Clock`` abstraction, and export helpers for JSON
snapshots and human-readable tables.

See ``docs/OBSERVABILITY.md`` for the metric catalogue and usage.
"""

from repro.obs.export import (
    registry_snapshot,
    render_table,
    snapshot_to_json,
    write_sidecar,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    OwnerCounters,
    get_registry,
    set_registry,
)
from repro.obs.tracing import NullTracer, Span, TraceEvent, Tracer

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "OwnerCounters",
    "Span",
    "TraceEvent",
    "Tracer",
    "get_registry",
    "registry_snapshot",
    "render_table",
    "set_registry",
    "snapshot_to_json",
    "write_sidecar",
]
