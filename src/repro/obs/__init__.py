"""Runtime-agnostic observability: events, metrics, convergence, lineage.

One instrumentation layer for both runtimes.  The simulator
(:mod:`repro.cluster`) and the live asyncio nodes (:mod:`repro.net`)
emit the same typed events onto an :class:`EventBus` and count into the
same :class:`MetricsRegistry`; :class:`ConvergenceTracker` turns either
stream into the paper's residue / traffic / delay observables, and
:class:`LineageIndex` rebuilds per-update infection trees from the
delivery-span stream (:mod:`repro.obs.spans`).  :class:`Profiler`
phase timers attribute wall time to the stages of a gossip round.  See
``docs/observability.md`` for the event taxonomy, metric names, span
schema, and trace format.
"""

from repro.obs.convergence import ConvergenceReport, ConvergenceTracker
from repro.obs.events import (
    Event,
    EventBus,
    EventKind,
    HARNESS_NODE,
    JsonlTraceWriter,
    RingBufferSink,
    TraceError,
    read_trace,
)
from repro.obs.lineage import InfectionTree, LineageIndex, render_analysis
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.obs.profiling import NULL_PROFILER, Profiler
from repro.obs.spans import (
    DeliverySpan,
    SpanContext,
    emit_delivery_span,
    span_of_event,
    trace_id_of,
)

__all__ = [
    "ConvergenceReport",
    "ConvergenceTracker",
    "Counter",
    "DeliverySpan",
    "Event",
    "EventBus",
    "EventKind",
    "Gauge",
    "HARNESS_NODE",
    "Histogram",
    "InfectionTree",
    "JsonlTraceWriter",
    "LineageIndex",
    "MetricError",
    "MetricsRegistry",
    "NULL_PROFILER",
    "Profiler",
    "RingBufferSink",
    "SpanContext",
    "TraceError",
    "emit_delivery_span",
    "read_trace",
    "render_analysis",
    "span_of_event",
    "trace_id_of",
]
