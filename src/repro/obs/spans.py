"""Causal propagation spans: per-delivery lineage records for one update.

The paper's observables (residue, traffic, ``t_ave``/``t_last``) are
aggregates — they say *that* an update converged, not *how* it spread.
A **delivery span** is the missing per-hop record: every time a replica
applies (or redundantly re-receives) an update, the receiving runtime
emits one ``delivery-span`` event describing the delivery edge::

    {"key": "printer:bldg-35",          # the updated key, stringified
     "trace": "printer:bldg-35@17…",    # trace id = origin update id
     "src": 3,                          # delivering node (None: injection)
     "first": true,                     # first time this node learned it
     "sent_at": 1723481930.4,           # sender's clock at send (live wire only)
     "result": "applied"}               # the ApplyResult that merging produced

The **trace id** is derived locally from the update itself: Section 1.1
timestamps are globally unique ``(time, site, sequence)`` triples, so
``trace_id_of`` needs no coordination and both runtimes — the simulator
and the live TCP nodes — agree on the id without anything crossing the
wire.  The *parent* of a span is the delivering exchange: ``src`` is
known locally at every receive.  Only ``sent_at`` rides inside an
update batch on the wire (:func:`repro.core.serialize.encode_batch`),
as a field a receiver reads leniently.

:mod:`repro.obs.lineage` consumes the span stream and reconstructs the
infection tree of each trace; a node's hop count from the origin is
its depth in that tree, walked along ``src`` links.  ``python -m repro
trace analyze`` renders it.  Emission itself is a near-no-op while the
bus has no sinks.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

from repro.core.store import ApplyResult, StoreUpdate
from repro.obs.events import Event, EventBus, EventKind

#: The span payload fields, in canonical order.  Both runtimes emit
#: exactly these keys — asserted by the shared round-trip test.
SPAN_FIELDS = ("key", "trace", "src", "first", "sent_at", "result")


def trace_id_of(update: StoreUpdate) -> str:
    """The trace id of ``update``, derived locally.

    Timestamps are globally unique (Section 1.1), so the key plus the
    ``(time, site, sequence)`` triple names one written version of one
    key everywhere, with no wire coordination.  A superseding write is
    a new trace; a death certificate for the same key likewise.
    """
    stamp = update.entry.timestamp
    return f"{update.key}@{stamp.time:g}#{stamp.site}.{stamp.sequence}"


@dataclasses.dataclass(frozen=True, slots=True)
class SpanContext:
    """The trace context of one update, as a record.

    ``hop`` is the sender's distance from the origin and ``sent_at``
    its wall clock at send time.  No wire carries this record: an
    update batch carries only ``sent_at``, and the analyzer reads a
    hop count off the infection tree.  It stays because perfbench's
    row-form codec probes still serialize it.
    """

    trace: str
    hop: Optional[int] = None
    sent_at: Optional[float] = None

    def to_wire(self) -> Dict[str, Any]:
        return {"trace": self.trace, "hop": self.hop, "sent_at": self.sent_at}


def emit_delivery_span(
    bus: EventBus,
    *,
    node: int,
    update: StoreUpdate,
    result: ApplyResult,
    src: Optional[int] = None,
    sent_at: Optional[float] = None,
    first: bool = True,
    time: Optional[float] = None,
) -> Optional[Event]:
    """Emit one ``delivery-span`` event — the single place the span
    schema is built, shared by the simulator and the live runtime."""
    return bus.emit(
        EventKind.DELIVERY_SPAN,
        node=node,
        time=time,
        key=str(update.key),
        trace=trace_id_of(update),
        src=src,
        first=first,
        sent_at=sent_at,
        result=result.value,
    )


@dataclasses.dataclass(frozen=True, slots=True)
class DeliverySpan:
    """One parsed ``delivery-span`` event (see :func:`span_of_event`)."""

    node: int
    time: float
    key: str
    trace: str
    src: Optional[int]
    first: bool
    sent_at: Optional[float]
    result: str
    seq: int = 0


def span_of_event(event: Event) -> Optional[DeliverySpan]:
    """Parse a bus event into a :class:`DeliverySpan`.

    Returns ``None`` for events of any other kind, or for span events
    whose payload is malformed (a trace file may be hand-edited).  A
    ``"hop"`` key, which older traces carry, is ignored.
    """
    if event.kind is not EventKind.DELIVERY_SPAN:
        return None
    payload = event.payload
    trace = payload.get("trace")
    key = payload.get("key")
    if not isinstance(trace, str) or not isinstance(key, str):
        return None
    src = payload.get("src")
    if not isinstance(src, int) or isinstance(src, bool):
        src = None
    sent_at = payload.get("sent_at")
    if not isinstance(sent_at, (int, float)) or isinstance(sent_at, bool):
        sent_at = None
    else:
        sent_at = float(sent_at)
    return DeliverySpan(
        node=event.node,
        time=event.time,
        key=key,
        trace=trace,
        src=src,
        first=bool(payload.get("first")),
        sent_at=sent_at,
        result=str(payload.get("result", "")),
        seq=event.seq,
    )
