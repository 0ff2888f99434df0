"""The cluster driver: synchronous cycles over a set of replica sites.

Responsibilities:

* build one :class:`Site` per database site of a topology (or ``n``
  sites with no topology for the uniform-network experiments of
  Tables 1-3), whose listeners are the attached protocols: a site
  accounts for its own injections and deliveries (:mod:`repro.cluster.site`);
* advance time in cycles — each cycle first runs what was posted for
  it (direct mail's deliveries, :meth:`Cluster.at_next_cycle`) and then
  lets every attached protocol execute its per-cycle step;
* account traffic: update sends and comparisons globally, and per
  link (routed over shortest paths) when the topology has links;
* track the spread of one designated update for residue / delay
  metrics, as the first listener of every site.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.cluster.site import Site
from repro.core.store import ApplyResult, StoreUpdate
from repro.core.timestamps import SimClock
from repro.obs.events import EventBus, EventKind
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import NULL_PROFILER, Profiler
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
        bus: Optional[EventBus] = None,
    ):
        """``bus`` attaches an observability event bus
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
        self._participants = list(topology.sites)
        self.rng = RngRegistry(seed)
        self.bus = bus if bus is not None else EventBus(clock=self._now)
        self.cycle = 0
        # Callbacks due at the top of the next cycle, in posting order.
        self._next_cycle: List[Callable[[], None]] = []
        self._clock_skew = clock_skew
        # Every site's listeners: the protocols, behind the cluster once it tracks.
        self._listeners: List = []
        self.sites: Dict[int, Site] = {}
        for site_id in self._participants:
            self.sites[site_id] = self._make_site(site_id)
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

    def _now(self) -> float:
        return float(self.cycle)

    def _make_site(self, site_id: int) -> Site:
        """A site whose clock honors the cluster's ``clock_skew`` function —
        for construction-time sites and late joiners alike."""
        skew = self._clock_skew(site_id) if self._clock_skew is not None else 0.0
        clock = SimClock(site_id, self._now, skew=skew)
        return Site(
            site_id, clock, self.rng.site_stream(site_id), self.bus, self._now, self._listeners
        )

    @property
    def n(self) -> int:
        return len(self.sites)

    @property
    def site_ids(self) -> List[int]:
        return list(self._participants)

    def site(self, site_id: int) -> Site:
        return self.sites[site_id]

    def up_site_ids(self) -> List[int]:
        return [site_id for site_id in self.site_ids if self.sites[site_id].up]

    # ------------------------------------------------------------------
    # Dynamic membership ("a slowly changing network", Section 0)
    # ------------------------------------------------------------------

    def add_site(self, site_id: Optional[int] = None) -> int:
        """Add a site to the replica set at the current cycle.

        On an edgeless (uniform) topology a fresh node is created; on a
        routed topology ``site_id`` must name a topology site that is
        not a participant, i.e. one removed earlier.  The new site
        starts with an empty store and catches up through whatever
        distribution mechanisms are attached.  Protocols are notified via
        ``on_site_added`` so they can initialize per-site state; any
        auto-created uniform selectors refresh to include the newcomer.
        """
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
        self.sites[site_id] = self._make_site(site_id)
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
        self._listeners.append(protocol)
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
        one when omitted).
        """
        self.profiler = Profiler(registry)
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
        site = self.sites[site_id]
        update = site.store.update(key, value)
        if track:
            self.track(update, injection_site=site_id)
        site.injected(update)
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
        site = self.sites[site_id]
        retention: Tuple[int, ...] = ()
        if retention_count > 0:
            retention = tuple(site.rng.sample(self.site_ids, min(retention_count, self.n)))
        update = site.store.delete(key, retention_sites=retention)
        if track:
            self.track(update, injection_site=site_id)
        site.injected(update)
        return update

    # ------------------------------------------------------------------
    # Tracking a designated update
    # ------------------------------------------------------------------

    def track(self, update: StoreUpdate, injection_site: Optional[int] = None) -> EpidemicMetrics:
        """Start measuring the spread of ``update``.

        Call immediately after :meth:`inject_update`; pass the site it
        was injected at so the origin counts as infected at time 0.
        From then on the cluster is the first listener of every site, and
        records each site's first receipt of ``update`` or a newer
        version of its key.
        """
        self.metrics = EpidemicMetrics(n=self.n, injection_time=float(self.cycle))
        self._tracked = update
        if injection_site is not None:
            self.metrics.record_receipt(injection_site, float(self.cycle))
        if self not in self._listeners:
            self._listeners.insert(0, self)
        return self.metrics

    def on_local_update(self, site_id: int, update: StoreUpdate) -> None:
        self.on_news(site_id, update, ApplyResult.APPLIED)

    def on_news(self, site_id: int, update: StoreUpdate, result: ApplyResult) -> None:
        tracked = self._tracked
        if update.key == tracked.key and update.entry.timestamp >= tracked.entry.timestamp:
            self.metrics.record_receipt(site_id, float(self.cycle))

    # ------------------------------------------------------------------
    # Protocol-facing hooks
    # ------------------------------------------------------------------

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

    def at_next_cycle(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` at the top of the next cycle, before any
        protocol's step; callbacks run in the order they were posted."""
        self._next_cycle.append(callback)

    def run_cycle(self) -> None:
        """Advance one cycle: run what was posted for it, then run protocols."""
        self.cycle += 1
        if self._next_cycle:
            # What a callback posts now waits for the following cycle.
            due, self._next_cycle = self._next_cycle, []
            with self.profiler.phase("mail"):
                for callback in due:
                    callback()
        if self.wan is not None:
            self.wan.reset_cycle()
        for protocol in self.protocols:
            protocol.run_cycle(self.cycle)
        if self.metrics is not None:
            self.metrics.cycles_run = self.cycle
        if self.bus.has_sinks:
            with self.profiler.phase("emit"):
                self.bus.emit(EventKind.CYCLE_COMPLETED, cycle=self.cycle)

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
