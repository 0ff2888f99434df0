"""Causal propagation spans: per-delivery lineage records for one update.

The paper's observables (residue, traffic, ``t_ave``/``t_last``) are
aggregates — they say *that* an update converged, not *how* it spread.
A **delivery span** is the missing per-hop record: every time a replica
applies (or redundantly re-receives) an update, the receiving runtime
emits one ``delivery-span`` event describing the delivery edge::

    {"key": "printer:bldg-35",          # the updated key, stringified
     "trace": "printer:bldg-35@17…",    # trace id = origin update id
     "src": 3,                          # delivering node (None: injection)
     "hop": 2,                          # distance from the origin (None: unknown)
     "first": true,                     # first time this node learned it
     "sent_at": 1723481930.4,           # sender's clock at send (live wire only)
     "result": "applied"}               # the ApplyResult that merging produced

The **trace id** is derived locally from the update itself: Section 1.1
timestamps are globally unique ``(time, site, sequence)`` triples, so
``trace_id_of`` needs no coordination and both runtimes — the simulator
and the live TCP nodes — agree on the id without anything crossing the
wire.  The *parent* of a span is the delivering exchange: ``src`` is
known locally at every receive; ``hop`` and ``sent_at`` ride inside
every update batch on the wire
(:func:`repro.core.serialize.encode_batch`), as columns a receiver
reads leniently.

:mod:`repro.obs.lineage` consumes the span stream and reconstructs the
infection tree of each trace; ``python -m repro trace analyze`` renders
it.  Emission itself is a near-no-op while the bus has no sinks.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional

from repro.core.store import ApplyResult, StoreUpdate
from repro.core.timestamps import Timestamp
from repro.obs.events import Event, EventBus, EventKind

#: The span payload fields, in canonical order.  Both runtimes emit
#: exactly these keys — asserted by the shared round-trip test.
SPAN_FIELDS = ("key", "trace", "src", "hop", "first", "sent_at", "result")


def trace_id(key: Hashable, stamp: Timestamp) -> str:
    """The trace id of ``key`` as written at ``stamp``, derived locally.

    Timestamps are globally unique (Section 1.1), so ``key`` plus the
    ``(time, site, sequence)`` triple names one written version of one
    key everywhere, with no wire coordination.  A superseding write is
    a new trace; a death certificate for the same key likewise.
    """
    return f"{key}@{stamp.time:g}#{stamp.site}.{stamp.sequence}"


def trace_id_of(update: StoreUpdate) -> str:
    """The trace id of ``update`` (:func:`trace_id`)."""
    return trace_id(update.key, update.entry.timestamp)


#: Default bound for :class:`TraceHopLru` — comfortably above the number
#: of traces simultaneously inside any hot list or tau window, tiny
#: against a long-running node's total update history.
TRACE_HOP_CAP = 4096


class TraceHopLru:
    """A bounded ``trace id -> hop bookkeeping`` map with LRU eviction.

    Both runtimes remember their distance from each trace's origin so
    outbound spans can carry ``hop``; without a bound that memory grows
    with every update the replica has ever learned.  Hop data is only
    useful while a trace is still circulating (hot rumors, the tau
    window), so least-recently-used eviction loses nothing but ancient
    traces — a re-learned old trace merely reports ``hop=None``, which
    the span schema already allows.

    Deliberately exposes just the dict subset the runtimes use
    (``get`` / ``setdefault``); both touch the entry, keeping live
    traces resident.
    """

    __slots__ = ("_entries", "_maxsize")

    def __init__(self, maxsize: int = TRACE_HOP_CAP):
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self._maxsize = maxsize
        self._entries: "OrderedDict[str, Any]" = OrderedDict()

    def get(self, trace: str, default: Any = None) -> Any:
        try:
            value = self._entries[trace]
        except KeyError:
            return default
        self._entries.move_to_end(trace)
        return value

    def setdefault(self, trace: str, default: Any) -> Any:
        if trace in self._entries:
            self._entries.move_to_end(trace)
            return self._entries[trace]
        self._entries[trace] = default
        while len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
        return default

    def __contains__(self, trace: str) -> bool:
        return trace in self._entries

    def __len__(self) -> int:
        return len(self._entries)


@dataclasses.dataclass(frozen=True, slots=True)
class SpanContext:
    """The trace context of one update, as a record.

    ``hop`` is the *sender's* distance from the origin (the receiver is
    at ``hop + 1``); ``sent_at`` is the sender's wall clock at send
    time, letting the analyzer attribute per-link network latency.
    The wire carries the same two facts as the ``hops`` column and
    ``sent_at`` field of an update batch; this per-update form is what
    perfbench's row-form codec probes still serialize.
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
    trace: Optional[str] = None,
    src: Optional[int] = None,
    hop: Optional[int] = None,
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
        trace=trace if trace is not None else trace_id_of(update),
        src=src,
        hop=hop,
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
    hop: Optional[int]
    first: bool
    sent_at: Optional[float]
    result: str
    seq: int = 0


def span_of_event(event: Event) -> Optional[DeliverySpan]:
    """Parse a bus event into a :class:`DeliverySpan`.

    Returns ``None`` for events of any other kind, or for span events
    whose payload is malformed (a trace file may be hand-edited).
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
    hop = payload.get("hop")
    if not isinstance(hop, int) or isinstance(hop, bool) or hop < 0:
        hop = None
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
        hop=hop,
        first=bool(payload.get("first")),
        sent_at=sent_at,
        result=str(payload.get("result", "")),
        seq=event.seq,
    )
