"""One replica: a store, its clock and random stream, and the one account
of what the replica learns.

The simulator's :class:`~repro.cluster.cluster.Cluster` holds a site per
database site, a live :class:`~repro.net.node.GossipNode` one for itself,
and both report each client write through :meth:`Site.injected` and each
merged batch through :meth:`Site.absorb`.  So every ``update-injected``,
``news-received``, ``delivery-span`` and ``death-cert-activated`` event
of either runtime is written here, once, and so is the decision of what
a replica spreads after obsolete data wakes a dormant certificate.
"""

from __future__ import annotations

import random
from itertools import compress
from operator import attrgetter
from typing import Callable, Optional, Sequence

from repro.core.store import (
    DEFAULT_BUCKET_BITS,
    ApplyResult,
    ReplicaStore,
    StoreUpdate,
    UpdateList,
)
from repro.core.timestamps import SimClock
from repro.obs.events import EventBus, EventKind
from repro.obs.profiling import NULL_PROFILER, Profiler
from repro.obs.spans import emit_delivery_span

_WAS_NEWS = attrgetter("was_news")
_WOKE = ApplyResult.RESURRECTION_BLOCKED


class Site:
    """One replica and its bookkeeping.

    Protocol state (hot-rumor lists, counters) is owned by the
    ``listeners``, keyed by site id: each hears ``on_local_update(id,
    update)`` after a client write here or a dormant certificate woke
    here, and ``on_news(id, update, result)`` for each other row that was
    news here, except the listener that delivered it (``via``).  A live
    node is its own site's one listener.  The site carries what every
    protocol shares: the store, the clock, the random stream that drives
    this site's independent choices, and the event ``bus`` with its
    clock ``now``.
    """

    __slots__ = ("id", "store", "clock", "rng", "up", "bus", "now", "listeners", "profiler")

    def __init__(
        self,
        site_id: int,
        clock: SimClock,
        rng: random.Random,
        bus: EventBus,
        now: Callable[[], float],
        listeners: Sequence = (),
        bucket_bits: int = DEFAULT_BUCKET_BITS,
        profiler: Profiler = NULL_PROFILER,
    ):
        self.id = site_id
        self.clock = clock
        self.rng = rng
        self.store = ReplicaStore(site_id=site_id, clock=clock, bucket_bits=bucket_bits)
        # Failure injection: a down site neither initiates nor accepts
        # conversations and loses no state (stores are stable storage).
        self.up = True
        self.bus = bus
        self.now = now
        self.listeners = listeners
        self.profiler = profiler

    def injected(self, update: StoreUpdate) -> float:
        """Account for a client write or delete just made here:
        ``update-injected``, the trace's root span (no ``src``), then
        ``news-received``.  Returns the time the events carry."""
        now = self.now()
        bus, node = self.bus, self.id
        if bus.has_sinks:
            key, deletion = str(update.key), update.entry.is_deletion
            bus.emit(EventKind.UPDATE_INJECTED, node=node, time=now, key=key, deletion=deletion)
            emit_delivery_span(bus, node=node, update=update, result=ApplyResult.APPLIED, time=now)
            bus.emit(EventKind.NEWS_RECEIVED, node=node, time=now, key=key)
        for listener in self.listeners:
            listener.on_local_update(node, update)
        return now

    def deliver(self, update: StoreUpdate, via=None, src: Optional[int] = None) -> ApplyResult:
        """Merge one update received from ``src`` here and account for
        it: a one-row :meth:`absorb`."""
        result = self.store.apply_entry(update.key, update.entry)
        self.absorb(UpdateList.of((update,)), (result,), src, via=via)
        return result

    def absorb(
        self,
        updates: UpdateList,
        results: Sequence[ApplyResult],
        src: Optional[int] = None,
        sent_at: Optional[float] = None,
        via=None,
    ) -> float:
        """Account for ``updates`` just merged here with ``results``,
        sent by ``src`` (``None``: unknown) at its clock's ``sent_at``
        and handed in by the listener ``via``.

        One ``delivery-span`` per row (a row that was not news only when
        ``src`` is known), then a ``death-cert-activated`` per dormant
        certificate a row woke, then a ``news-received`` per row that was
        news; then the listeners hear each woken certificate and the other
        news.  Rows are built only for a sink or a listener to read.
        Returns the time the events carry.
        """
        now = self.now()
        if not results:
            return now
        bus, node = self.bus, self.id
        if bus.has_sinks:
            with self.profiler.phase("emit"):
                for update, result in zip(updates, results):
                    news = result.was_news
                    if news or src is not None:
                        emit_delivery_span(
                            bus,
                            node=node,
                            update=update,
                            result=result,
                            src=src,
                            sent_at=sent_at,
                            first=news,
                            time=now,
                        )
                woke = [result is _WOKE for result in results]
                for key in compress(updates.keys, woke):
                    bus.emit(EventKind.DEATH_CERT_ACTIVATED, node=node, time=now, key=str(key))
                for key in compress(updates.keys, map(_WAS_NEWS, results)):
                    bus.emit(EventKind.NEWS_RECEIVED, node=node, time=now, key=str(key))
        others = [listener for listener in self.listeners if listener is not via]
        if others or _WOKE in results:
            for update, result in zip(updates, results):
                if result is _WOKE:
                    # Section 2's antibody: the woken certificate spreads
                    # again as this replica's own write, to every listener
                    # (``via`` too); the obsolete row reaches none.
                    awakened = StoreUpdate(update.key, self.store.entry(update.key))
                    for listener in self.listeners:
                        listener.on_local_update(node, awakened)
                elif result.was_news:
                    for listener in others:
                        listener.on_news(node, update, result)
        return now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "up" if self.up else "down"
        return f"Site({self.id}, {status}, {len(self.store)} entries)"
