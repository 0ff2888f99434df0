"""The structured event bus: one stream of typed events from either runtime.

The paper measures every algorithm through the same observables —
residue, traffic, delay (Section 1.4) — regardless of whether the
mechanism is direct mail, anti-entropy, or rumor mongering.  The event
bus gives the repo the same property at the instrumentation layer: the
discrete-event simulator (:mod:`repro.cluster`) and the live asyncio
runtime (:mod:`repro.net`) emit the *same* typed events, so one
consumer (:mod:`repro.obs.convergence`, a JSONL trace file, a test)
works against both.

An :class:`Event` is a kind, a timestamp (wall-clock seconds for the
live runtime, cycles for the simulator), the emitting node's id, and a
JSON-safe payload.  The bus assigns a monotonically increasing
sequence number so event order is total even when timestamps tie.

Sinks are plain callables ``sink(event)``.  Two batteries-included
sinks ship here:

* :class:`JsonlTraceWriter` — one JSON object per line, the trace
  schema documented in ``docs/observability.md``; traces round-trip
  through :func:`read_trace`.
* :class:`RingBufferSink` — a bounded in-memory buffer keeping the most
  recent events (old events are dropped, not the new ones), for live
  introspection and post-run analysis without unbounded growth.

Emitting on a bus with no sinks is a near-no-op (no :class:`Event` is
even constructed), so instrumented code paths can emit unconditionally.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import json
import pathlib
import time
from collections import deque
from typing import Any, Callable, Dict, Iterator, List, Optional, Union


class EventKind(enum.Enum):
    """The event taxonomy (see docs/observability.md)."""

    # Run/harness lifecycle
    RUN_STARTED = "run-started"
    CYCLE_COMPLETED = "cycle-completed"
    CENSUS = "census"
    # Data plane
    UPDATE_INJECTED = "update-injected"
    NEWS_RECEIVED = "news-received"
    DEATH_CERT_ACTIVATED = "death-cert-activated"
    DELIVERY_SPAN = "delivery-span"
    # Anti-entropy
    EXCHANGE_STARTED = "exchange-started"
    EXCHANGE_SETTLED = "exchange-settled"
    CHECKSUM_HIT = "checksum-hit"
    CHECKSUM_MISS = "checksum-miss"
    # Rumor mongering
    RUMOR_HOT = "rumor-hot"
    RUMOR_DEAD = "rumor-dead"
    RUMOR_SENT = "rumor-sent"
    # Transport health
    REJECTION = "rejection"
    PEER_RETRY = "peer-retry"
    PEER_FAILURE = "peer-failure"
    INBOUND_ERROR = "inbound-error"
    STEP_ERROR = "step-error"
    # Workload (repro.workload): staleness-sampling reads and the
    # per-window steady-state summaries behind the curve outputs.
    READ_SAMPLED = "read-sampled"
    WORKLOAD_WINDOW = "workload-window"


_KINDS_BY_VALUE = {kind.value: kind for kind in EventKind}

#: Node id events carry when they come from a harness/client rather
#: than a roster node (matches ``repro.net.runner.CLIENT_ID``).
HARNESS_NODE = -1


class TraceError(Exception):
    """A trace line could not be decoded back into an :class:`Event`."""


@dataclasses.dataclass(frozen=True, slots=True)
class Event:
    """One observed occurrence.

    ``time`` is whatever clock the emitting runtime uses — wall-clock
    seconds live, simulated cycles in the simulator.  Consumers that
    compute delays only ever *subtract* event times, so the unit rides
    along untouched.
    """

    kind: EventKind
    time: float
    node: int
    seq: int = 0
    payload: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """The JSONL trace representation of this event."""
        return {
            "seq": self.seq,
            "t": self.time,
            "kind": self.kind.value,
            "node": self.node,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, blob: Any) -> "Event":
        if not isinstance(blob, dict):
            raise TraceError(f"trace record must be an object, got {type(blob).__name__}")
        kind = _KINDS_BY_VALUE.get(blob.get("kind"))
        if kind is None:
            raise TraceError(f"unknown event kind {blob.get('kind')!r}")
        t = blob.get("t")
        if not isinstance(t, (int, float)) or isinstance(t, bool):
            raise TraceError(f"bad event time {t!r}")
        node = blob.get("node")
        if not isinstance(node, int) or isinstance(node, bool):
            raise TraceError(f"bad event node {node!r}")
        payload = blob.get("payload", {})
        if not isinstance(payload, dict):
            raise TraceError(f"bad event payload {payload!r}")
        seq = blob.get("seq", 0)
        if not isinstance(seq, int) or isinstance(seq, bool):
            raise TraceError(f"bad event seq {seq!r}")
        return cls(kind=kind, time=float(t), node=node, seq=seq, payload=payload)


#: A sink is any callable taking one event.
EventSink = Callable[[Event], None]


class EventBus:
    """Fan-out point for events: emitters on one side, sinks on the other.

    The bus is deliberately synchronous and in-process: the live
    runtime's nodes share one bus per process (``LiveCluster``), the
    simulator's cluster owns one, and tests attach list sinks directly.
    """

    def __init__(self, clock: Callable[[], float] = time.time):
        self._clock = clock
        self._sinks: List[EventSink] = []
        self._seq = itertools.count()
        self.emitted = 0
        #: Plain attribute mirror of :attr:`active`, maintained by
        #: add_sink/remove_sink.  Emit call sites on simulator hot paths
        #: read it to skip building payload kwargs entirely when nobody
        #: is listening — one attribute load instead of a property call.
        self.has_sinks = False

    def add_sink(self, sink: EventSink) -> EventSink:
        self._sinks.append(sink)
        self.has_sinks = True
        return sink

    def remove_sink(self, sink: EventSink) -> None:
        self._sinks.remove(sink)
        self.has_sinks = bool(self._sinks)

    @property
    def active(self) -> bool:
        """True when at least one sink would see an emitted event."""
        return bool(self._sinks)

    def emit(
        self,
        kind: EventKind,
        node: int = HARNESS_NODE,
        time: Optional[float] = None,
        **payload: Any,
    ) -> Optional[Event]:
        """Emit one event to every sink; returns it (None when no sinks).

        A sink that raises does not stop delivery to the other sinks —
        observability must never take the observed system down — but the
        first error is re-raised after delivery so tests see it.
        """
        if not self._sinks:
            return None
        event = Event(
            kind=kind,
            time=self._clock() if time is None else time,
            node=node,
            seq=next(self._seq),
            payload=payload,
        )
        self.emitted += 1
        first_error: Optional[BaseException] = None
        for sink in self._sinks:
            try:
                sink(event)
            except Exception as error:  # noqa: BLE001 - isolate sinks
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error
        return event


class RingBufferSink:
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._buffer: deque = deque(maxlen=capacity)
        self.seen = 0

    def __call__(self, event: Event) -> None:
        self._buffer.append(event)
        self.seen += 1

    @property
    def dropped(self) -> int:
        return self.seen - len(self._buffer)

    @property
    def events(self) -> List[Event]:
        return list(self._buffer)

    def of_kind(self, kind: EventKind) -> List[Event]:
        return [event for event in self._buffer if event.kind is kind]

    def clear(self) -> None:
        self._buffer.clear()


class JsonlTraceWriter:
    """Writes each event as one JSON line; usable as a context manager.

    ``flush_every`` bounds how many tail events a killed process can
    lose: the writer flushes the OS-level buffer after every N events
    (``1`` = after each event, for long live runs that may be
    SIGTERMed; ``0`` = never flush until close, for throughput).
    """

    def __init__(self, path: Union[str, pathlib.Path], flush_every: int = 256):
        if flush_every < 0:
            raise ValueError("flush_every must be >= 0")
        self.path = pathlib.Path(path)
        self.flush_every = flush_every
        self._handle = self.path.open("w", encoding="utf-8")
        self.written = 0

    def __call__(self, event: Event) -> None:
        if self._handle.closed:
            return
        self._handle.write(json.dumps(event.to_dict(), separators=(",", ":")) + "\n")
        self.written += 1
        if self.flush_every and self.written % self.flush_every == 0:
            self._handle.flush()

    def flush(self) -> None:
        if not self._handle.closed:
            self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_trace(path: Union[str, pathlib.Path]) -> Iterator[Event]:
    """Yield the events of a JSONL trace file, in file order.

    Blank lines are skipped; malformed lines raise :class:`TraceError`
    with the offending line number.
    """
    with pathlib.Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                blob = json.loads(line)
            except json.JSONDecodeError as error:
                raise TraceError(f"{path}:{lineno}: not valid JSON: {error}") from None
            yield Event.from_dict(blob)
