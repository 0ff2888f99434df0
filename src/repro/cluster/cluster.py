"""The cluster driver: synchronous cycles over a set of replica sites.

Responsibilities:

* build one :class:`Site` per database site of a topology (or ``n``
  sites with no topology for the uniform-network experiments of
  Tables 1-3);
* advance time in cycles — each cycle first drains the event engine
  (mail deliveries and any other scheduled work) and then lets every
  attached protocol execute its per-cycle step;
* route update and delete injections to the protocols;
* account traffic: update sends and comparisons globally, and per
  link (routed over shortest paths) when the topology has links;
* track the spread of one designated update for residue / delay
  metrics, and emit a delivery span whenever any site learns news.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.store import ApplyResult, StoreUpdate
from repro.core.timestamps import SimClock
from repro.obs.events import EventBus, EventKind
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import NULL_PROFILER, Profiler
from repro.obs.spans import emit_delivery_span
from repro.sim.engine import Simulator
from repro.sim.metrics import EpidemicMetrics, LinkTraffic
from repro.sim.rng import RngRegistry
from repro.topology.graph import Topology, sites_only


class Cluster:
    """A set of replica sites advanced in synchronous cycles."""

    def __init__(
        self,
        topology: Optional[Topology] = None,
        n: Optional[int] = None,
        seed: int = 0,
        clock_skew: Callable[[int], float] | None = None,
        participants: Optional[Sequence[int]] = None,
        bus: Optional[EventBus] = None,
    ):
        """``participants`` restricts the replica set to a subset of the
        topology's sites — the Clearinghouse situation where a domain is
        stored "on as few as one, or as many as all" of the servers.
        Traffic is still routed over the full topology.

        ``bus`` attaches an observability event bus
        (:mod:`repro.obs.events`); the cluster then emits the same
        typed events the live runtime does (``update-injected``,
        ``news-received``, ``death-cert-activated``,
        ``cycle-completed``), timestamped in cycles."""
        if topology is None:
            if n is None:
                raise ValueError("provide a topology or a site count n")
            topology = sites_only(n)
        elif n is not None and n != topology.site_count:
            raise ValueError("n disagrees with the topology's site count")
        topology.validate()
        self.topology = topology
        if participants is None:
            self._participants = list(topology.sites)
        else:
            unknown = set(participants) - set(topology.sites)
            if unknown:
                raise ValueError(f"participants not in topology: {sorted(unknown)}")
            if not participants:
                raise ValueError("participants must not be empty")
            self._participants = list(participants)
        self.rng = RngRegistry(seed)
        self.bus = bus if bus is not None else EventBus(clock=lambda: float(self.cycle))
        self.simulator = Simulator()
        self.cycle = 0
        self.sites: Dict[int, "Site"] = {}
        from repro.cluster.site import Site  # local import: cycle guard

        self._clock_skew = clock_skew
        for site_id in self._participants:
            self.sites[site_id] = Site(
                site_id, self._make_clock(site_id), self.rng.site_stream(site_id)
            )
        self.protocols: List = []
        self.traffic = LinkTraffic()
        # Optional WAN model (repro.workload.geo.WanNetwork): per-cycle
        # link budgets gate conversations, and traffic charges the
        # capped links' ledgers.  None on non-geo topologies.
        self.wan = None
        self.metrics: Optional[EpidemicMetrics] = None
        self._tracked: Optional[StoreUpdate] = None
        self._routable = topology.edge_count > 0
        # Partition state: site -> group id; None means fully connected.
        self._partition: Optional[Dict[int, int]] = None
        # Phase timers (repro.obs.profiling); the null profiler keeps the
        # hot path free of perf_counter calls until enable_profiling().
        self.profiler: Profiler = NULL_PROFILER

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------

    def _make_clock(self, site_id: int) -> SimClock:
        """A site clock honoring the cluster's ``clock_skew`` function —
        for construction-time sites and late joiners alike."""
        skew = self._clock_skew(site_id) if self._clock_skew is not None else 0.0
        return SimClock(site_id, lambda: float(self.cycle), skew=skew)

    @property
    def n(self) -> int:
        return len(self.sites)

    @property
    def site_ids(self) -> List[int]:
        return list(self._participants)

    def site(self, site_id: int) -> "Site":
        return self.sites[site_id]

    def up_site_ids(self) -> List[int]:
        return [site_id for site_id in self.site_ids if self.sites[site_id].up]

    # ------------------------------------------------------------------
    # Dynamic membership ("a slowly changing network", Section 0)
    # ------------------------------------------------------------------

    def add_site(self, site_id: Optional[int] = None) -> int:
        """Add a site to the replica set at the current cycle.

        On an edgeless (uniform) topology a fresh node is created; on a
        routed topology ``site_id`` must name an existing topology site
        that is not yet a participant.  The new site starts with an
        empty store and catches up through whatever distribution
        mechanisms are attached.  Protocols are notified via
        ``on_site_added`` so they can initialize per-site state; any
        auto-created uniform selectors refresh to include the newcomer.
        """
        from repro.cluster.site import Site  # local import: cycle guard

        if site_id is None:
            if self.topology.edge_count > 0:
                raise ValueError(
                    "on a routed topology, name an existing topology site"
                )
            site_id = self.topology.new_node(site=True)
        else:
            if site_id in self.sites:
                raise ValueError(f"site {site_id} is already a participant")
            if site_id not in self.topology.sites:
                if self.topology.edge_count > 0:
                    raise ValueError(f"{site_id} is not a site of the topology")
                self.topology.add_node(site_id, site=True)
        self.sites[site_id] = Site(
            site_id, self._make_clock(site_id), self.rng.site_stream(site_id)
        )
        self._participants.append(site_id)
        for protocol in self.protocols:
            protocol.on_site_added(site_id)
        return site_id

    def remove_site(self, site_id: int) -> None:
        """Remove a site from the replica set permanently.

        The site's store is discarded (it no longer replicates this
        database); protocols drop their per-site state.  Note the
        Section 2 caveat this models: dormant death certificates held
        only by removed sites are lost with them.
        """
        if site_id not in self.sites:
            raise ValueError(f"site {site_id} is not a participant")
        if len(self._participants) <= 1:
            raise ValueError("cannot remove the last site")
        # Update membership first so protocols notified below (which may
        # rebuild selectors from site_ids) see the post-removal view.
        del self.sites[site_id]
        self._participants.remove(site_id)
        if self._partition is not None:
            self._partition.pop(site_id, None)
        for protocol in self.protocols:
            protocol.on_site_removed(site_id)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    def set_partition(self, groups: Sequence[Sequence[int]]) -> None:
        """Split the network: sites may only converse within their
        group.  Sites not named in any group form one implicit group of
        their own (group -1).  Mail already in flight still arrives —
        the paper's mail queues survive outages on stable storage."""
        assignment: Dict[int, int] = {}
        for index, group in enumerate(groups):
            for site_id in group:
                if site_id not in self.sites:
                    raise ValueError(f"not a participant site: {site_id}")
                if site_id in assignment:
                    raise ValueError(f"site {site_id} in two partition groups")
                assignment[site_id] = index
        self._partition = assignment

    def clear_partition(self) -> None:
        """Heal the partition."""
        self._partition = None

    @property
    def partitioned(self) -> bool:
        return self._partition is not None

    def can_communicate(self, a: int, b: int) -> bool:
        """Whether two sites can currently hold a conversation.

        False when either is down, has left the replica set (a stale
        selector may still name it), or a partition separates them.
        """
        site_a = self.sites.get(a)
        site_b = self.sites.get(b)
        if site_a is None or site_b is None or not (site_a.up and site_b.up):
            return False
        if self._partition is not None and (
            self._partition.get(a, -1) != self._partition.get(b, -1)
        ):
            return False
        if self.wan is not None and not self.wan.conversation_allowed(a, b):
            return False
        return True

    def add_protocol(self, protocol) -> "Cluster":
        protocol.attach(self)
        self.protocols.append(protocol)
        return self

    def attach_wan(self, wan) -> "Cluster":
        """Enforce a WAN model's per-cycle link budgets on this cluster.

        ``wan`` is a :class:`repro.workload.geo.WanNetwork` whose
        topology this cluster was built on.  Once attached, a
        conversation that would overrun a capped WAN link's per-cycle
        budget is refused (the initiator hunts for another partner —
        usually one in its own datacenter), and every conversation and
        update shipment charges the budgets it crosses.
        """
        if wan.topology is not self.topology:
            raise ValueError("the cluster must be built on the WAN's topology")
        self.wan = wan
        wan.reset_cycle()
        return self

    def enable_profiling(self, registry: Optional[MetricsRegistry] = None) -> Profiler:
        """Swap the null profiler for a real one; returns it.

        Phase timings accumulate as ``repro_phase_seconds_total`` /
        ``repro_phase_calls_total`` counters on ``registry`` (a fresh
        one when omitted).  The simulator engine times every callback
        once enabled, so expect measurable overhead on big runs.
        """
        self.profiler = Profiler(registry)
        self.simulator.profiler = self.profiler
        return self.profiler

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------

    def inject_update(
        self, site_id: int, key: Hashable, value, track: bool = False
    ) -> StoreUpdate:
        """Perform a client write at ``site_id`` and hand it to the protocols.

        With ``track=True`` the spread of this update is measured:
        ``cluster.metrics`` starts recording before the protocols are
        notified, so even the injection-time traffic (direct mail's
        ``n-1`` messages) is counted.
        """
        update = self.sites[site_id].store.update(key, value)
        if track:
            self.track(update, injection_site=site_id)
        self._after_injection(site_id, update)
        return update

    def inject_delete(
        self,
        site_id: int,
        key: Hashable,
        retention_count: int = 0,
        track: bool = False,
    ) -> StoreUpdate:
        """Delete ``key`` at ``site_id``, creating a death certificate.

        ``retention_count`` is the paper's ``r``: that many sites are
        chosen at random (by the deleting site) to retain a dormant
        copy of the certificate after ``tau1``.
        """
        retention: Tuple[int, ...] = ()
        if retention_count > 0:
            rng = self.sites[site_id].rng
            retention = tuple(rng.sample(self.site_ids, min(retention_count, self.n)))
        update = self.sites[site_id].store.delete(key, retention_sites=retention)
        if track:
            self.track(update, injection_site=site_id)
        self._after_injection(site_id, update)
        return update

    def _after_injection(self, site_id: int, update: StoreUpdate) -> None:
        if self._tracked is not None and self._matches_tracked(update):
            self.metrics.record_receipt(site_id, float(self.cycle))
        if self.bus.has_sinks:
            self.bus.emit(
                EventKind.UPDATE_INJECTED,
                node=site_id,
                key=str(update.key),
                deletion=update.entry.is_deletion,
            )
            # The injection is the root span of this update's trace:
            # no delivering source.
            emit_delivery_span(
                self.bus, node=site_id, update=update, result=ApplyResult.APPLIED
            )
        for protocol in self.protocols:
            protocol.on_local_update(site_id, update)

    # ------------------------------------------------------------------
    # Tracking a designated update
    # ------------------------------------------------------------------

    def track(self, update: StoreUpdate, injection_site: Optional[int] = None) -> EpidemicMetrics:
        """Start measuring the spread of ``update``.

        Call immediately after :meth:`inject_update`; pass the site it
        was injected at so the origin counts as infected at time 0.
        """
        self.metrics = EpidemicMetrics(n=self.n, injection_time=float(self.cycle))
        self._tracked = update
        if injection_site is not None:
            self.metrics.record_receipt(injection_site, float(self.cycle))
        return self.metrics

    def _matches_tracked(self, update: StoreUpdate) -> bool:
        tracked = self._tracked
        return (
            tracked is not None
            and update.key == tracked.key
            and update.entry.timestamp >= tracked.entry.timestamp
        )

    # ------------------------------------------------------------------
    # Protocol-facing hooks
    # ------------------------------------------------------------------

    def apply_at(
        self, site_id: int, update: StoreUpdate, via, source: Optional[int] = None
    ) -> ApplyResult:
        """Merge a received update into ``site_id``'s store and fan out
        news notifications.  ``via`` is the delivering protocol (or
        ``None``); other protocols get ``on_news`` so that, e.g., a
        mail delivery can become a hot rumor.  ``source`` is the site
        the update arrived from, when the protocol knows it — it becomes
        the parent of the delivery span."""
        result = self.sites[site_id].store.apply_entry(update.key, update.entry)
        if result.was_news:
            self.notify_news(site_id, update, result, via, source=source)
        elif self.bus.has_sinks and source is not None:
            # A targeted delivery the receiver already knew: redundant
            # traffic, attributed to its link in the infection tree.
            emit_delivery_span(
                self.bus,
                node=site_id,
                update=update,
                result=result,
                src=source,
                first=False,
            )
        return result

    def notify_news(
        self,
        site_id: int,
        update: StoreUpdate,
        result: ApplyResult,
        via,
        source: Optional[int] = None,
    ) -> None:
        if self.metrics is not None and self._matches_tracked(update):
            self.metrics.record_receipt(site_id, float(self.cycle))
        if self.bus.has_sinks:
            self.bus.emit(
                EventKind.NEWS_RECEIVED,
                node=site_id,
                key=str(update.key),
                result=result.value,
            )
            if result is ApplyResult.RESURRECTION_BLOCKED:
                self.bus.emit(
                    EventKind.DEATH_CERT_ACTIVATED, node=site_id, key=str(update.key)
                )
            emit_delivery_span(
                self.bus, node=site_id, update=update, result=result, src=source
            )
        for protocol in self.protocols:
            if protocol is not via:
                protocol.on_news(site_id, update, result)

    def count_comparison(self, src: int, dst: int) -> None:
        """Record one conversation (anti-entropy comparison or rumor
        exchange) between two sites, charged to every link en route."""
        if self.metrics is not None:
            self.metrics.record_comparison()
        if self._routable:
            self.traffic.compare.add_edges(self.topology.path_edges(src, dst))
        if self.wan is not None:
            self.wan.note_conversation(src, dst)

    def count_update_sends(self, src: int, dst: int, count: int = 1) -> None:
        """Record ``count`` update transmissions from ``src`` to ``dst``."""
        if count <= 0:
            return
        if self.metrics is not None:
            self.metrics.record_update_send(count)
        if self._routable:
            self.traffic.update.add_edges(self.topology.path_edges(src, dst), count)
        if self.wan is not None:
            self.wan.note_updates(src, dst, count)

    def count_useful_update_send(self, src: int, dst: int, count: int = 1) -> None:
        """Record ``count`` update transmissions the receiver needed
        (Table 4's "had to be sent" notion); counted in addition to
        :meth:`count_update_sends`, not instead of it."""
        if count <= 0:
            return
        if self._routable:
            self.traffic.useful_update.add_edges(
                self.topology.path_edges(src, dst), count
            )

    def count_rejection(self) -> None:
        if self.metrics is not None:
            self.metrics.record_rejection()

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    def run_cycle(self) -> None:
        """Advance one cycle: deliver scheduled events, then run protocols."""
        self.cycle += 1
        # Purely cycle-driven runs (no mail, no timers) keep an empty
        # heap; skip the event loop and just move the clock.
        if self.simulator.pending:
            self.simulator.run(until=float(self.cycle))
        else:
            self.simulator.advance_to(float(self.cycle))
        if self.wan is not None:
            self.wan.reset_cycle()
        for protocol in self.protocols:
            protocol.run_cycle(self.cycle)
        if self.metrics is not None:
            self.metrics.cycles_run = self.cycle
        if self.bus.has_sinks:
            with self.profiler.phase("emit"):
                self.bus.emit(
                    EventKind.CYCLE_COMPLETED,
                    cycle=self.cycle,
                    engine=self.simulator.stats(),
                )

    def run_cycles(self, count: int) -> None:
        for __ in range(count):
            self.run_cycle()

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_cycles: int = 10_000,
    ) -> int:
        """Run cycles until ``predicate()`` holds; returns cycles run.

        Raises RuntimeError when the bound is hit, so a stuck epidemic
        fails loudly instead of silently reporting bogus metrics.
        """
        start = self.cycle
        while not predicate():
            if self.cycle - start >= max_cycles:
                raise RuntimeError(f"predicate not reached within {max_cycles} cycles")
            self.run_cycle()
        return self.cycle - start

    def run_until_quiescent(self, max_cycles: int = 10_000, settle: int = 0) -> int:
        """Run until every protocol reports no pending work.

        ``settle`` extra cycles are run afterwards (some experiments
        want a margin to prove nothing re-ignites).
        """
        ran = self.run_until(
            lambda: all(not p.active for p in self.protocols), max_cycles
        )
        self.run_cycles(settle)
        return ran + settle

    # ------------------------------------------------------------------
    # Consistency checks
    # ------------------------------------------------------------------

    def converged(self, site_ids: Optional[Sequence[int]] = None) -> bool:
        """True when all (given) sites hold identical databases."""
        ids = list(site_ids) if site_ids is not None else self.site_ids
        if len(ids) < 2:
            return True
        reference = self.sites[ids[0]].store
        return all(self.sites[s].store.agrees_with(reference) for s in ids[1:])

    def infected_sites(self, update: StoreUpdate) -> List[int]:
        """Sites whose store reflects ``update`` (or something newer)."""
        infected = []
        for site_id in self.site_ids:
            entry = self.sites[site_id].store.entry(update.key)
            if entry is not None and entry.timestamp >= update.entry.timestamp:
                infected.append(site_id)
        return infected

    def values_of(self, key: Hashable) -> Dict[int, object]:
        """Client-visible value of ``key`` at every site."""
        return {s: self.sites[s].store.get(key) for s in self.site_ids}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cluster(n={self.n}, cycle={self.cycle}, protocols={len(self.protocols)})"
