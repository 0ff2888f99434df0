"""The live gossip node: the paper's protocols over asyncio TCP.

A :class:`GossipNode` owns one :class:`~repro.core.store.ReplicaStore`
(timestamped by wall-clock time) and runs, concurrently:

* an **inbound server** answering PUSH / PULL_REQUEST / CHECKSUM /
  RUMOR / MAIL frames from peers;
* a periodic **anti-entropy loop** — pick a partner (uniform or a
  Section 3 spatial distribution over the roster), resolve differences
  through the same :class:`~repro.protocols.exchange.ExchangeSession`
  objects the simulator uses, with either the full-compare or the
  checksum-plus-recent-updates strategy of Section 1.3;
* a faster **rumor loop** — hot rumors are pushed to random partners,
  and the ACK's was-news feedback drives the Section 1.4 counter: a
  rumor goes cold after ``k`` unnecessary pushes.

Busy-server behavior mirrors :mod:`repro.sim.transport`: a node refuses
a conversation when ``connection_limit`` inbound conversations are
already in flight (the refusal is an ``ACK {"rejected": true}``), and a
refused initiator *hunts* — redraws partners up to ``hunt_limit`` more
times.

Nothing here re-implements merge semantics: offers are resolved by the
simulator's ``ExchangeSession`` and every received update list is
merged by one ``ReplicaStore.apply_updates`` call and accounted for as
one batch, so the live runtime and the simulator cannot drift apart.  Update lists leave through one function
(:meth:`GossipNode._update_payload`) and, outside an offer being
resolved, come in through one (:meth:`GossipNode._absorb`).
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import random
import socket
import time
import traceback
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.core.serialize import (
    SerializeError,
    decode_key,
    encode_batch,
    encode_timestamp,
)
from repro.core.store import ApplyResult, ReplicaStore, StoreUpdate
from repro.core.timestamps import SimClock
from repro.net.membership import Membership, PeerInfo
from repro.net.peer import InFlightBudget, Peer, PeerError, RetryPolicy
from repro.obs.events import EventBus, EventKind
from repro.obs.metrics import MetricsRegistry, linear_buckets
from repro.obs.profiling import Profiler
from repro.obs.spans import TraceHopLru, emit_delivery_span, trace_id_of
from repro.net.wire import (
    MAX_FRAME_BYTES,
    Message,
    MessageType,
    PROTOCOL_VERSION,
    WireError,
    encode_message,
    payload_bucket_list,
    payload_tree_nodes,
    payload_update_list,
    read_message,
)
from repro.protocols.base import ExchangeMode
from repro.protocols.exchange import ExchangeSession

_MODES_BY_VALUE = {mode.value: mode for mode in ExchangeMode}


@dataclasses.dataclass(frozen=True, slots=True)
class NodeConfig:
    """Tunables for one gossip node.

    Intervals are seconds of wall-clock time; ``tau`` (the recent-update
    window for the checksum strategy) must comfortably exceed the
    expected update-distribution time, exactly as in Section 1.3.
    """

    anti_entropy_interval: float = 0.2
    rumor_interval: float = 0.05
    mode: ExchangeMode = ExchangeMode.PUSH_PULL
    strategy: str = "full"            # "full" | "checksum" | "hierarchical"
    tau: float = 30.0
    rumor_k: int = 2
    connection_limit: int = 8         # inbound conversations in flight
    hunt_limit: int = 2               # extra partner draws after a rejection
    in_flight_limit: int = 4          # outbound conversations in flight
    selector: str = "uniform"         # "uniform" | "spatial:<a>"
    retry: RetryPolicy = RetryPolicy()
    max_frame: int = MAX_FRAME_BYTES

    def __post_init__(self) -> None:
        if self.anti_entropy_interval <= 0 or self.rumor_interval <= 0:
            raise ValueError("intervals must be positive")
        if self.strategy not in ("full", "checksum", "hierarchical"):
            raise ValueError(f"unknown exchange strategy {self.strategy!r}")
        if self.strategy == "hierarchical" and self.mode is not ExchangeMode.PUSH_PULL:
            # Pruning a checksum subtree needs both sides' data present
            # in the compared values; one-way modes cannot certify that.
            raise ValueError("hierarchical strategy requires push-pull mode")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.rumor_k < 1:
            raise ValueError("rumor_k must be >= 1")
        if self.connection_limit < 1:
            raise ValueError("connection_limit must be >= 1")
        if self.hunt_limit < 0:
            raise ValueError("hunt_limit must be >= 0")


#: NodeStats scalar counters and the registry families backing them.
_SCALAR_COUNTERS = {
    "exchanges": (
        "repro_exchanges_total", "Anti-entropy conversations initiated"),
    "checksum_successes": (
        "repro_checksum_successes_total",
        "Exchanges settled by the Section 1.3 checksum phase alone"),
    "updates_shipped": (
        "repro_updates_shipped_total", "Database entries sent to peers"),
    "updates_absorbed": (
        "repro_updates_absorbed_total", "News applied from peers"),
    "rumors_started": (
        "repro_rumors_started_total", "Hot rumors started at this node"),
    "tree_rounds": (
        "repro_tree_rounds_total",
        "TREE drill-down round trips in hierarchical exchanges"),
    "entries_avoided": (
        "repro_entries_avoided_total",
        "Local entries a hierarchical exchange did not have to offer"),
    "rejections_in": (
        "repro_rejections_in_total", "Inbound conversations this node refused"),
    "rejections_out": (
        "repro_rejections_out_total", "Refusals this node received"),
    "hunts": (
        "repro_hunts_total", "Extra partner draws after refusals or failures"),
    "peer_failures": (
        "repro_peer_failures_total", "Conversations dead after all retries"),
    "inbound_errors": (
        "repro_inbound_errors_total",
        "Inbound connections dropped on a malformed frame, a broken socket "
        "or a handler bug"),
}


class NodeStats:
    """Counters a node keeps about its own traffic.

    Since the observability layer landed these are backed by a
    :class:`repro.obs.metrics.MetricsRegistry` — the same numbers are
    exported as labeled Prometheus/JSON series over the ``STATUS`` wire
    message — but the historical attribute API is preserved: read and
    ``+=`` the scalar counters (``stats.exchanges += 1``), and read
    ``frames_sent`` / ``frames_received`` as plain per-type dicts.

    ``received`` maps each key to the wall-clock moment this node first
    learned news about it — the per-site receipt times from which the
    demo harness computes the paper's ``t_ave``/``t_last`` delays.  It
    grows with the store; STATUS and probe replies carry only
    :meth:`recent_receipts`.
    """

    #: Receipts a STATUS/probe reply carries.  The whole map is 30 bytes
    #: a key: past the frame limit near 540 k keys, and a node that
    #: cannot answer STATUS is not observable.
    RECEIPTS_IN_STATUS = 1024

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.received: Dict[Hashable, float] = {}
        self._frames_sent = self.registry.counter(
            "repro_frames_sent_total", "Frames sent, by message type",
            labels=("type",),
        )
        self._frames_received = self.registry.counter(
            "repro_frames_received_total", "Frames received, by message type",
            labels=("type",),
        )
        self.exchange_seconds = self.registry.histogram(
            "repro_exchange_seconds",
            "Latency of one initiated anti-entropy conversation (seconds)",
        )
        self.dirty_buckets = self.registry.histogram(
            "repro_dirty_buckets",
            "Differing buckets found per hierarchical drill-down",
            buckets=linear_buckets(0.0, 8.0, 16),
        )
        self._scalars = {
            attr: self.registry.counter(name, help)
            for attr, (name, help) in _SCALAR_COUNTERS.items()
        }

    def recent_receipts(self) -> Dict[str, float]:
        """The newest ``RECEIPTS_IN_STATUS`` receipts, oldest first."""
        newest = itertools.islice(
            reversed(self.received.items()), self.RECEIPTS_IN_STATUS
        )
        return {str(key): t for key, t in reversed(list(newest))}

    def count_sent(self, kind: MessageType, n: int = 1) -> None:
        self._frames_sent.inc(n, type=kind.value)

    def count_received(self, kind: MessageType, n: int = 1) -> None:
        self._frames_received.inc(n, type=kind.value)

    @property
    def frames_sent(self) -> Dict[str, int]:
        return {
            labels["type"]: int(cell.value)
            for labels, cell in self._frames_sent.labeled_series()
        }

    @property
    def frames_received(self) -> Dict[str, int]:
        return {
            labels["type"]: int(cell.value)
            for labels, cell in self._frames_received.labeled_series()
        }

    @property
    def frames_sent_total(self) -> int:
        return int(self._frames_sent.total())

    @property
    def frames_received_total(self) -> int:
        return int(self._frames_received.total())


def _scalar_counter_property(attr: str) -> property:
    def getter(self: NodeStats) -> int:
        return int(self._scalars[attr].value())

    def setter(self: NodeStats, value: int) -> None:
        delta = value - int(self._scalars[attr].value())
        if delta < 0:
            raise ValueError(f"NodeStats.{attr} is a counter; it only goes up")
        if delta:
            self._scalars[attr].inc(delta)

    return property(getter, setter, doc=_SCALAR_COUNTERS[attr][1])


for _attr in _SCALAR_COUNTERS:
    setattr(NodeStats, _attr, _scalar_counter_property(_attr))


@dataclasses.dataclass(slots=True)
class _HotRumor:
    """Per-node state for one hot rumor (feedback + counter, Section 1.4)."""

    update: StoreUpdate
    counter: int = 0


class GossipNode:
    """One networked replica: store + server + gossip loops."""

    def __init__(
        self,
        node_id: int,
        membership: Membership,
        config: NodeConfig = NodeConfig(),
        seed: Optional[int] = None,
        bus: Optional[EventBus] = None,
    ):
        self.info: PeerInfo = membership.get(node_id)
        self.node_id = node_id
        self.membership = membership
        self.config = config
        self.bus = bus if bus is not None else EventBus()
        self.store = ReplicaStore(
            site_id=node_id, clock=SimClock(site=node_id, time_source=time.time)
        )
        self.peers: Dict[int, Peer] = {
            peer.node_id: Peer(peer, config.retry, observer=self._peer_event)
            for peer in membership.others(node_id)
        }
        self._selector = membership.selector(config.selector) if len(membership) > 1 else None
        self._rng = random.Random(seed if seed is not None else node_id)
        self._budget = InFlightBudget(config.in_flight_limit)
        self._hot: Dict[Hashable, _HotRumor] = {}
        self._inbound_active = 0
        self._server: Optional[asyncio.base_events.Server] = None
        # Writers of the inbound connections _serve is answering; stop()
        # closes them so no peer keeps talking to a stopped node.
        self._inbound_writers: set = set()
        self._accepting = False
        self._tasks: List[asyncio.Task] = []
        self._started_at = time.time()
        self.stats = NodeStats()
        # Phase timers share the stats registry, so profiling numbers
        # travel in every STATUS snapshot.  Live granularity is one
        # network conversation — timing overhead is noise at that scale.
        self.profiler = Profiler(registry=self.stats.registry)
        # trace id -> this node's hop distance from the update's origin,
        # forwarded as the trace context of outbound update lists.
        # LRU-bounded: hop data only matters while a trace circulates,
        # and an unbounded map would grow with every update ever seen.
        self._span_hops = TraceHopLru()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self, sock: Optional[socket.socket] = None) -> None:
        """Bind the server (on the roster address, or a pre-bound
        socket) and start the gossip loops."""
        if self._server is not None:
            raise RuntimeError(f"node {self.node_id} is already running")
        self._accepting = True
        if sock is not None:
            self._server = await asyncio.start_server(self._serve, sock=sock)
        else:
            self._server = await asyncio.start_server(
                self._serve, self.info.host, self.info.port
            )
        self._started_at = time.time()
        self._tasks = [
            asyncio.create_task(
                self._periodic(self.config.anti_entropy_interval, self.run_anti_entropy_once),
                name=f"node{self.node_id}-anti-entropy",
            ),
            asyncio.create_task(
                self._periodic(self.config.rumor_interval, self.run_rumor_once),
                name=f"node{self.node_id}-rumor",
            ),
        ]

    async def stop(self) -> None:
        """Stop loops, close the server and all outbound connections."""
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            # On 3.11, wait_for can swallow a cancellation when its
            # inner future completes in the same event-loop step
            # (bpo-42130), leaving the loop task running with the
            # cancel request consumed.  Keep cancelling until the task
            # actually finishes instead of awaiting it once.
            while not task.done():
                task.cancel()
                await asyncio.wait((task,), timeout=1.0)
            if not task.cancelled():
                task.exception()  # retrieved, so the loop never warns
        self._tasks = []
        if self._server is not None:
            self._server.close()
            # Accepted connections outlive the listening socket: without
            # this a peer's cached connection would go on being answered
            # by this stopped node and its old store.  Closed before
            # wait_closed(), which from 3.12 waits for them to finish;
            # one whose _serve task has yet to run closes itself.
            self._accepting = False
            for writer in self._inbound_writers:
                writer.close()
            await self._server.wait_closed()
            self._server = None
        for peer in self.peers.values():
            await peer.close()

    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def port(self) -> int:
        """The actually bound port (useful with ephemeral sockets)."""
        if self._server is None or not self._server.sockets:
            return self.info.port
        return self._server.sockets[0].getsockname()[1]

    async def _periodic(self, interval: float, step) -> None:
        while True:
            task = asyncio.current_task()
            # A wait_for inside the step can swallow a pending
            # cancellation (bpo-42130); the request stays visible in
            # cancelling() because nothing uncancels, so honor it.
            # Task.cancelling() is 3.11+ only — on 3.10 the re-cancel
            # loop in stop() is the sole (still sufficient) backstop.
            cancelling = getattr(task, "cancelling", None)
            if cancelling is not None and cancelling():
                raise asyncio.CancelledError
            # Jitter desynchronizes the loops across nodes, like the
            # independent per-site timers of the paper's model.
            await asyncio.sleep(interval * (0.5 + self._rng.random()))
            try:
                await step()
            except asyncio.CancelledError:
                raise
            except Exception:
                # A single failed conversation must never kill the loop;
                # failures are already counted in stats.
                pass

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------

    def inject(self, key: Hashable, value: Any) -> StoreUpdate:
        """A client write at this node; becomes a hot rumor."""
        update = self.store.update(key, value)
        self._announce_injection(update, deletion=False)
        self._make_hot(update)
        return update

    def delete(self, key: Hashable) -> StoreUpdate:
        update = self.store.delete(key)
        self._announce_injection(update, deletion=True)
        self._make_hot(update)
        return update

    def _announce_injection(self, update: StoreUpdate, deletion: bool) -> None:
        """Emit the injection events with one shared timestamp, so the
        trace replay and the node's own receipt record agree exactly."""
        now = time.time()
        trace = trace_id_of(update)
        self._span_hops.setdefault(trace, 0)
        self.bus.emit(
            EventKind.UPDATE_INJECTED,
            node=self.node_id,
            time=now,
            key=str(update.key),
            deletion=deletion,
        )
        self._note_news([update], now=now)
        if self.bus.has_sinks:
            emit_delivery_span(
                self.bus,
                node=self.node_id,
                update=update,
                result=ApplyResult.APPLIED,
                trace=trace,
                src=None,
                hop=0,
                first=True,
                time=now,
            )

    # ------------------------------------------------------------------
    # Outbound: anti-entropy
    # ------------------------------------------------------------------

    async def run_anti_entropy_once(self) -> bool:
        """One anti-entropy round: pick a partner (hunting past
        refusals) and resolve differences.  True when an exchange ran."""
        if self._selector is None:
            return False
        for attempt in range(self.config.hunt_limit + 1):
            if attempt:
                self.stats.hunts += 1
            with self.profiler.phase("partner-selection"):
                partner_id = self._selector.choose(self.node_id, self._rng)
            peer = self.peers[partner_id]
            self.bus.emit(
                EventKind.EXCHANGE_STARTED,
                node=self.node_id,
                partner=partner_id,
                mode=self.config.mode.value,
                strategy=self.config.strategy,
                attempt=attempt,
            )
            began = time.monotonic()
            try:
                async with self._budget:
                    with self.profiler.phase("exchange"):
                        accepted = await self._anti_entropy_with(peer)
            except (PeerError, WireError):
                self.stats.peer_failures += 1
                continue  # partner down: hunt for another, like a busy site
            if accepted:
                self.stats.exchanges += 1
                self.stats.exchange_seconds.observe(time.monotonic() - began)
                return True
            self.stats.rejections_out += 1
            self.bus.emit(
                EventKind.REJECTION,
                node=self.node_id,
                partner=partner_id,
                direction="out",
            )
        return False

    async def _anti_entropy_with(self, peer: Peer) -> bool:
        """Returns False when the partner refused the conversation."""
        mode = self.config.mode
        shipped = received = 0
        via = "full"
        scope_buckets: Optional[List[int]] = None
        if self.config.strategy == "checksum":
            phase = await self._checksum_phase(peer, mode)
            if phase is None:
                return False  # refused
            settled, shipped, received = phase
            if settled:
                self.stats.checksum_successes += 1
                self._settled(peer, mode, "checksum", shipped, received)
                return True
            # Checksums still disagree: fall through to a full exchange.
            via = "checksum+full"
        elif self.config.strategy == "hierarchical":
            walk = await self._tree_phase(peer, mode)
            if walk is None:
                return False  # refused
            if walk == "mismatch":
                # Bucket counts disagree; the trees don't line up.
                via = "tree+full"
            else:
                dirty = walk
                self.stats.dirty_buckets.observe(len(dirty))
                if not dirty:
                    self.stats.checksum_successes += 1
                    self._settled(peer, mode, "tree", 0, 0)
                    return True
                scope_buckets = dirty
                via = "tree"
        session = ExchangeSession(self.store, mode)
        if scope_buckets is None:
            offered = session.offer()
        else:
            offered = [
                update
                for bucket in scope_buckets
                for update in self.store.bucket_updates(bucket)
            ]
        request_type = (
            MessageType.PUSH if mode.pushes else MessageType.PULL_REQUEST
        )
        fields = {"mode": mode.value, "updates": offered}
        if scope_buckets is not None:
            fields["buckets"] = scope_buckets
            fields["bits"] = self.store.bucket_bits
            self.stats.entries_avoided += max(0, len(self.store) - len(offered))
        # A pull-only offer is read as a digest, never applied: untraced.
        payload = self._update_payload(fields, traced=mode.pushes)
        reply = await self._call(
            peer,
            Message(type=request_type, sender=self.node_id, payload=payload),
        )
        if _rejected(reply):
            return False
        sent = len(offered) if mode.pushes else 0
        self.stats.updates_shipped += sent
        shipped += sent
        if reply.type is MessageType.PULL_REPLY:
            received += len(self._absorb(reply.payload, peer.node_id))
        if via == "tree":
            # Resolved through the tree without a full comparison: the
            # same success the checksum strategy counts, achieved with
            # bucket-scoped traffic.
            self.stats.checksum_successes += 1
        self._settled(peer, mode, via, shipped, received)
        return True

    def _settled(
        self, peer: Peer, mode: ExchangeMode, via: str, shipped: int, received: int
    ) -> None:
        """One accepted anti-entropy conversation, fully accounted.

        ``shipped``/``received`` count every entry that crossed the wire
        in either direction, so summing ``exchange-settled`` events
        reproduces the paper's update-traffic ``m`` exactly as the
        per-node ``repro_updates_shipped_total`` counters do.
        """
        self.bus.emit(
            EventKind.EXCHANGE_SETTLED,
            node=self.node_id,
            partner=peer.node_id,
            mode=mode.value,
            via=via,
            shipped=shipped,
            received=received,
        )

    async def _checksum_phase(
        self, peer: Peer, mode: ExchangeMode
    ) -> Optional[tuple]:
        """Section 1.3's cheap first phase over the wire.

        Returns ``(settled, shipped, received)`` — ``settled`` is True
        when the checksums agree after exchanging recent update lists —
        or ``None`` when the partner refused the conversation.
        """
        recent = self.store.recent_updates(self.config.tau) if mode.pushes else []
        payload = self._update_payload(
            {
                "mode": mode.value,
                "checksum": self.store.checksum,
                "tau": self.config.tau,
                "updates": recent,
            },
            traced=bool(recent),
        )
        reply = await self._call(
            peer,
            Message(type=MessageType.CHECKSUM, sender=self.node_id, payload=payload),
        )
        if _rejected(reply):
            return None
        if reply.type is not MessageType.CHECKSUM:
            raise WireError(f"expected CHECKSUM reply, got {reply.type.value}")
        self.stats.updates_shipped += len(recent)
        incoming = self._absorb(reply.payload, peer.node_id)
        theirs = reply.payload.get("checksum")
        settled = isinstance(theirs, int) and theirs == self.store.checksum
        self.bus.emit(
            EventKind.CHECKSUM_HIT if settled else EventKind.CHECKSUM_MISS,
            node=self.node_id,
            partner=peer.node_id,
        )
        return settled, len(recent), len(incoming)

    async def _tree_phase(self, peer: Peer, mode: ExchangeMode):
        """Walk the checksum trees level by level over TREE frames.

        Each round trip sends the differing nodes of one tree level with
        this node's checksums; the peer answers with its children's
        values for the internal nodes that differ, plus the buckets of
        differing leaves.  Equal subtrees are pruned on both sides, so
        traffic per round is proportional to the *difference*, and the
        number of rounds to ``bucket_bits``.

        Returns the sorted dirty-bucket list, ``"mismatch"`` when the
        peer's bucket count differs from ours (caller falls back to a
        full exchange), or ``None`` when the peer refused.
        """
        tree = self.store.checksum_tree
        bits = self.store.bucket_bits
        request = [[1, tree.root]]
        dirty: List[int] = []
        while request:
            payload = {"mode": mode.value, "bits": bits, "nodes": request}
            reply = await self._call(
                peer,
                Message(type=MessageType.TREE, sender=self.node_id, payload=payload),
            )
            if _rejected(reply):
                return None
            if reply.type is not MessageType.TREE:
                raise WireError(f"expected TREE reply, got {reply.type.value}")
            self.stats.tree_rounds += 1
            if reply.payload.get("mismatch"):
                return "mismatch"
            dirty.extend(payload_bucket_list(reply.payload, "dirty"))
            request = []
            for node_id, theirs in payload_tree_nodes(reply.payload, "frontier"):
                if not tree.valid_node(node_id):
                    raise WireError(f"tree node {node_id} out of range")
                if tree.node(node_id) == theirs:
                    continue  # our subtree matches theirs: pruned
                if tree.is_leaf(node_id):
                    dirty.append(tree.bucket_of_leaf(node_id))
                else:
                    request.append([node_id, tree.node(node_id)])
        return sorted(set(dirty))

    # ------------------------------------------------------------------
    # Outbound: rumor mongering
    # ------------------------------------------------------------------

    async def run_rumor_once(self) -> bool:
        """Push the hot-rumor list to one partner; apply ACK feedback."""
        if self._selector is None or not self._hot:
            return False
        rumors = list(self._hot.values())
        updates = [rumor.update for rumor in rumors]
        with self.profiler.phase("partner-selection"):
            partner_id = self._selector.choose(self.node_id, self._rng)
        peer = self.peers[partner_id]
        payload = self._update_payload({"updates": updates})
        try:
            async with self._budget:
                with self.profiler.phase("exchange"):
                    reply = await self._call(
                        peer,
                        Message(
                            type=MessageType.RUMOR,
                            sender=self.node_id,
                            payload=payload,
                        ),
                    )
        except (PeerError, WireError):
            self.stats.peer_failures += 1
            return False
        if _rejected(reply):
            self.stats.rejections_out += 1
            self.bus.emit(
                EventKind.REJECTION,
                node=self.node_id,
                partner=partner_id,
                direction="out",
            )
            return False
        self.stats.updates_shipped += len(updates)
        self.bus.emit(
            EventKind.RUMOR_SENT,
            node=self.node_id,
            partner=partner_id,
            shipped=len(updates),
        )
        news = reply.payload.get("news", [])
        for index, rumor in enumerate(rumors):
            was_news = bool(news[index]) if index < len(news) else False
            if was_news:
                continue  # feedback: a useful push keeps the rumor hot
            rumor.counter += 1
            if rumor.counter >= self.config.rumor_k:
                self._hot.pop(rumor.update.key, None)
                self.bus.emit(
                    EventKind.RUMOR_DEAD,
                    node=self.node_id,
                    key=str(rumor.update.key),
                    counter=rumor.counter,
                )
        return True

    def _make_hot(self, update: StoreUpdate) -> None:
        existing = self._hot.get(update.key)
        if existing is not None and not _beats(update, existing.update):
            return
        self._hot[update.key] = _HotRumor(update=update)
        self.stats.rumors_started += 1
        self.bus.emit(EventKind.RUMOR_HOT, node=self.node_id, key=str(update.key))

    @property
    def hot_rumor_count(self) -> int:
        return len(self._hot)

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if not self._accepting:
            # Accepted just before stop() closed the server, first run
            # after it: stop() could not see this writer to close it.
            writer.close()
            return
        self._inbound_writers.add(writer)
        try:
            while True:
                message = await read_message(reader, self.config.max_frame)
                if message is None:
                    break
                self.stats.count_received(message.type)
                reply = self._dispatch(message)
                if reply is not None:
                    self.stats.count_sent(reply.type)
                    writer.write(encode_message(reply))
                    await writer.drain()
        except Exception as error:
            # The boundary no exception may cross: a garbage frame, a
            # reset socket or a bug in a handler costs this connection
            # only, and is counted — silence here hid all three.  A bug
            # is reported with its traceback.
            peer_fault = isinstance(error, (WireError, OSError))
            self.stats.inbound_errors += 1
            self.bus.emit(
                EventKind.INBOUND_ERROR,
                node=self.node_id,
                error=type(error).__name__,
                detail=str(error) if peer_fault else traceback.format_exc(),
            )
        finally:
            self._inbound_writers.discard(writer)
            # No wait_closed() here: awaiting it can raise a spurious
            # CancelledError when the whole node is being torn down.
            writer.close()

    def _dispatch(self, message: Message) -> Optional[Message]:
        """Dispatch one inbound frame; returns the reply frame."""
        if message.type is MessageType.STATUS:
            # Introspection is served even while gossip is being
            # refused: an overloaded node must stay observable.
            return Message(
                type=MessageType.STATUS,
                sender=self.node_id,
                payload=self.status_payload(),
            )
        if self._inbound_active >= self.config.connection_limit:
            # The busy-server refusal of Section 1.4: the initiator may
            # hunt for another partner.
            self.stats.rejections_in += 1
            self.bus.emit(
                EventKind.REJECTION,
                node=self.node_id,
                partner=message.sender,
                direction="in",
            )
            return self._ack({"rejected": True})
        self._inbound_active += 1
        try:
            try:
                if message.type in (MessageType.PUSH, MessageType.PULL_REQUEST):
                    return self._handle_exchange(message)
                if message.type is MessageType.CHECKSUM:
                    return self._handle_checksum(message)
                if message.type is MessageType.TREE:
                    return self._handle_tree(message)
                if message.type is MessageType.RUMOR:
                    return self._handle_rumor(message)
                if message.type is MessageType.MAIL:
                    return self._handle_mail(message)
            except (WireError, SerializeError) as error:
                return self._ack({"error": str(error)})
            return None  # ACKs need no answer
        finally:
            self._inbound_active -= 1

    def _handle_exchange(self, message: Message) -> Message:
        mode = _decode_mode(message.payload)
        offered, hops, sent_at = payload_update_list(message.payload)
        if message.type is MessageType.PULL_REQUEST:
            # The offer is a digest only: never apply, only serve back.
            mode = ExchangeMode.PULL
        scope = self._exchange_scope(message.payload)
        session = ExchangeSession(self.store, mode)
        with self.profiler.phase("merge"):
            reply = session.respond(offered, scope=scope)
        if hops is not None:
            # ``reply.applied`` holds the offered objects themselves, so
            # identity pairs each applied version with its own hop — a
            # frame carrying two versions of one key must not hand
            # version A's context to version B.
            hop_of = {id(u): hop for u, hop in zip(offered, hops)}
            hops = [hop_of[id(u)] for u in reply.applied]
        now = self._account(
            list(zip(reply.applied, reply.applied_results)),
            message.sender, hops, sent_at,
        )
        if mode.pulls:
            self.stats.updates_shipped += len(reply.send_back)
            return Message(
                type=MessageType.PULL_REPLY,
                sender=self.node_id,
                payload=self._update_payload({"updates": reply.send_back}, now),
            )
        return self._ack({"applied": len(reply.applied)})

    def _handle_checksum(self, message: Message) -> Message:
        if message.payload.get("probe"):
            return self._ack(self._probe_payload())
        mode = _decode_mode(message.payload)
        self._absorb(message.payload, message.sender)
        tau = message.payload.get("tau", self.config.tau)
        if not isinstance(tau, (int, float)) or isinstance(tau, bool) or tau <= 0:
            raise WireError(f"bad tau {tau!r}")
        recent = self.store.recent_updates(float(tau)) if mode.pulls else []
        self.stats.updates_shipped += len(recent)
        return Message(
            type=MessageType.CHECKSUM,
            sender=self.node_id,
            payload=self._update_payload(
                {"checksum": self.store.checksum, "updates": recent}
            ),
        )

    def _exchange_scope(self, payload: Dict[str, Any]):
        """The local ``(key, entry)`` scope of a bucket-limited offer.

        An initiator that resolved differences through a TREE
        drill-down scopes its PUSH to the dirty buckets; the responder
        must then only send back entries from *those* buckets, or the
        reply would ship (nearly) its whole table.  Returns ``None`` —
        whole-store scope — for ordinary offers, and also when the
        advertised bucket geometry does not match ours: resolving over
        the full table is always correct, just not as cheap.
        """
        if "buckets" not in payload:
            return None
        buckets = payload_bucket_list(payload, "buckets")
        if payload.get("bits") != self.store.bucket_bits:
            return None
        count = self.store.bucket_count
        if any(bucket >= count for bucket in buckets):
            raise WireError(f"bucket index out of range in {buckets!r}")
        return [
            pair for bucket in buckets for pair in self.store.bucket_entries(bucket)
        ]

    def _handle_tree(self, message: Message) -> Message:
        """One level of a hierarchical-checksum drill-down.

        The initiator sends ``(node_id, checksum)`` pairs from its tree;
        for each that differs from ours we answer with our children's
        values (internal nodes) or the bucket index (leaves).  Equal
        nodes are dropped — that subtree is settled.
        """
        payload = message.payload
        bits = payload.get("bits")
        if bits != self.store.bucket_bits:
            return Message(
                type=MessageType.TREE,
                sender=self.node_id,
                payload={"bits": self.store.bucket_bits, "mismatch": True},
            )
        tree = self.store.checksum_tree
        frontier: List[List[int]] = []
        dirty: List[int] = []
        for node_id, theirs in payload_tree_nodes(payload):
            if not tree.valid_node(node_id):
                raise WireError(f"tree node {node_id} out of range")
            if tree.node(node_id) == theirs:
                continue
            if tree.is_leaf(node_id):
                dirty.append(tree.bucket_of_leaf(node_id))
            else:
                left, right = tree.children(node_id)
                frontier.append([left, tree.node(left)])
                frontier.append([right, tree.node(right)])
        self.stats.tree_rounds += 1
        return Message(
            type=MessageType.TREE,
            sender=self.node_id,
            payload={"bits": bits, "frontier": frontier, "dirty": dirty},
        )

    def _handle_rumor(self, message: Message) -> Message:
        applied = self._absorb(message.payload, message.sender)
        for update, result in applied:
            if result.was_news:
                self._make_hot(update)  # infection: the rumor spreads here too
        return self._ack({"news": [result.was_news for __, result in applied]})

    def _handle_mail(self, message: Message) -> Message:
        payload = message.payload
        if "read" in payload:
            # Client read: this replica's current view of one key, with
            # the entry's timestamp so a load generator can measure how
            # far behind the globally latest write this node is.
            entry = self.store.entry(decode_key(payload["read"]))
            if entry is None:
                return self._ack({"found": False, "timestamp": None})
            return self._ack(
                {
                    "found": True,
                    "deleted": entry.is_deletion,
                    "timestamp": encode_timestamp(entry.timestamp),
                    "value": None if entry.is_deletion else entry.value,
                }
            )
        if "key" in payload:
            # Client injection: stamp with this node's clock and start
            # spreading (the paper's "update at the originating site").
            # ``delete`` issues a death certificate instead of a write.
            key = decode_key(payload["key"])
            if payload.get("delete"):
                update = self.delete(key)
            else:
                update = self.inject(key, payload.get("value"))
            return self._ack(
                {"applied": True, "timestamp": encode_timestamp(update.timestamp)}
            )
        applied = self._absorb(payload, message.sender)
        return self._ack({"news": [result.was_news for __, result in applied]})

    def _probe_payload(self) -> Dict[str, Any]:
        """Status snapshot for the measurement harness."""
        stats = self.stats
        return {
            "node": self.node_id,
            "checksum": self.store.checksum,
            "entries": len(self.store),
            "received": stats.recent_receipts(),
            "received_total": len(stats.received),
            "exchanges": stats.exchanges,
            "checksum_successes": stats.checksum_successes,
            "updates_shipped": stats.updates_shipped,
            "updates_absorbed": stats.updates_absorbed,
            "frames_sent": dict(stats.frames_sent),
            "frames_received": dict(stats.frames_received),
            "rejections_in": stats.rejections_in,
            "rejections_out": stats.rejections_out,
            "peer_failures": stats.peer_failures,
            "hot_rumors": len(self._hot),
        }

    def status_payload(self) -> Dict[str, Any]:
        """The ``STATUS`` introspection reply: identity, S/I/R census,
        receipt times, and the full metrics-registry snapshot."""
        hot_keys = sorted(str(key) for key in self._hot)
        entries = len(self.store)
        return {
            "node": self.node_id,
            "roster_size": len(self.membership),
            "uptime_seconds": time.time() - self._started_at,
            "checksum": self.store.checksum,
            "entries": entries,
            "buckets": {
                "bits": self.store.bucket_bits,
                "count": self.store.bucket_count,
                "nonzero": sum(1 for _ in self.store.checksum_tree.nonzero_buckets()),
            },
            "census": {
                # This node's own S/I/R view over the keys it stores:
                # hot rumors are infective, the rest removed.  A node
                # cannot see its own susceptibility — assemble the
                # cluster-wide census by asking every roster member.
                "infective": len(hot_keys),
                "removed": max(entries - len(hot_keys), 0),
            },
            "hot_keys": hot_keys,
            "received": self.stats.recent_receipts(),
            "received_total": len(self.stats.received),
            "config": {
                "mode": self.config.mode.value,
                "strategy": self.config.strategy,
                "selector": self.config.selector,
                "anti_entropy_interval": self.config.anti_entropy_interval,
                "rumor_interval": self.config.rumor_interval,
            },
            "wire": {"version": PROTOCOL_VERSION},
            "metrics": self.stats.registry.snapshot(),
        }

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    async def _call(self, peer: Peer, message: Message) -> Message:
        self.stats.count_sent(message.type)
        reply = await peer.call(message)
        self.stats.count_received(reply.type)
        return reply

    def wire_version(self, peer_id: int) -> int:
        """The wire version spoken with ``peer_id``: the one this build
        writes to everyone, from the first frame.  (Per peer only in
        signature — perfbench reports it peer by peer.)"""
        return PROTOCOL_VERSION

    def _update_payload(
        self,
        fields: Dict[str, Any],
        now: Optional[float] = None,
        traced: bool = True,
    ) -> Dict[str, Any]:
        """The one way out: the payload for ``fields``, whose
        ``"updates"`` list of store updates becomes a columnar batch.

        ``traced`` says whether the trace context — this node's known
        hops, the send time ``now`` — rides inside the batch; an offer
        the partner only reads as a digest goes without.
        """
        updates = fields["updates"]
        if traced:
            batch = encode_batch(
                updates, self._known_hops(updates), time.time() if now is None else now
            )
        else:
            batch = encode_batch(updates)
        return {**fields, "updates": batch}

    def _absorb(
        self, payload: Dict[str, Any], src: int
    ) -> List[Tuple[StoreUpdate, ApplyResult]]:
        """The one way in: apply the update list ``payload`` carries
        from node ``src`` and account for it.  Returns every
        ``(update, result)`` pair, news or not."""
        updates, hops, sent_at = payload_update_list(payload)
        with self.profiler.phase("merge"):
            results = self.store.apply_updates(updates)
        applied = list(zip(updates, results))
        self._account(applied, src, hops, sent_at)
        return applied

    def _account(
        self,
        applied: List[Tuple[StoreUpdate, ApplyResult]],
        src: int,
        hops: Optional[List[Optional[int]]],
        sent_at: Optional[float],
    ) -> float:
        """Account for entries just applied from node ``src``: delivery
        spans, receipt times, reactivated death certificates, the
        absorbed counter.  Returns the receipt time it stamped."""
        now = time.time()
        self._record_deliveries(applied, src, hops, sent_at, now)
        news = []
        for update, result in applied:
            if result.was_news:
                news.append(update)
                if result is ApplyResult.RESURRECTION_BLOCKED:
                    # A dormant death certificate met obsolete data and
                    # woke up (Section 2's antibody); the same event the
                    # simulator emits.
                    self.bus.emit(
                        EventKind.DEATH_CERT_ACTIVATED,
                        node=self.node_id,
                        key=str(update.key),
                    )
        self._note_news(news, now=now)
        self.stats.updates_absorbed += len(news)
        return now

    def _known_hops(self, updates: List[StoreUpdate]) -> Optional[List[Optional[int]]]:
        """This node's hop distance from each update's origin, or
        ``None`` when it knows none of them — then no trace id is even
        formatted, which is what a bulk transfer of old entries sees."""
        if not len(self._span_hops):
            return None
        known = self._span_hops.get
        hops = [known(trace_id_of(update)) for update in updates]
        return None if hops.count(None) == len(hops) else hops

    def _record_deliveries(
        self,
        pairs: List[Tuple[StoreUpdate, ApplyResult]],
        src: int,
        hops: Optional[List[Optional[int]]],
        sent_at: Optional[float],
        now: float,
    ) -> None:
        """Account one batch of deliveries from peer ``src``.

        Learns this node's hop distance from each update's origin (the
        sender's hop + 1; ``hops`` is aligned with ``pairs``, or ``None``
        when the sender knew none) and emits one delivery span per
        update.  The trace id is always derived locally from the update
        itself — the wire context only contributes hop and send-time, so
        a garbled context cannot reroute a span into another update's
        tree — and only for an update that has a hop to record or a sink
        to be reported to.
        """
        has_sinks = self.bus.has_sinks
        if not pairs or (hops is None and not has_sinks):
            return
        with self.profiler.phase("emit"):
            for index, (update, result) in enumerate(pairs):
                hop = None if hops is None else hops[index]
                if hop is not None:
                    hop += 1
                elif not has_sinks:
                    continue
                trace = trace_id_of(update)
                if result.was_news and hop is not None:
                    self._span_hops.setdefault(trace, hop)
                if has_sinks:
                    emit_delivery_span(
                        self.bus,
                        node=self.node_id,
                        update=update,
                        result=result,
                        trace=trace,
                        src=src,
                        hop=hop,
                        sent_at=sent_at,
                        first=result.was_news,
                        time=now,
                    )

    def _ack(self, payload: Dict[str, Any]) -> Message:
        return Message(type=MessageType.ACK, sender=self.node_id, payload=payload)

    def _note_news(
        self, updates: List[StoreUpdate], now: Optional[float] = None
    ) -> None:
        if now is None:
            now = time.time()
        received = self.stats.received
        has_sinks = self.bus.has_sinks
        for update in updates:
            key = update.key
            if key not in received:
                received[key] = now
                if has_sinks:
                    self.bus.emit(
                        EventKind.NEWS_RECEIVED,
                        node=self.node_id,
                        time=now,
                        key=str(key),
                    )

    def _peer_event(
        self, kind: str, info: PeerInfo, attempt: int, error: BaseException
    ) -> None:
        self.bus.emit(
            EventKind.PEER_RETRY if kind == "retry" else EventKind.PEER_FAILURE,
            node=self.node_id,
            partner=info.node_id,
            attempt=attempt,
            error=type(error).__name__,
        )


def _rejected(reply: Message) -> bool:
    return reply.type is MessageType.ACK and bool(reply.payload.get("rejected"))


def _decode_mode(payload: Dict[str, Any]) -> ExchangeMode:
    mode = _MODES_BY_VALUE.get(payload.get("mode"))
    if mode is None:
        raise WireError(f"bad exchange mode {payload.get('mode')!r}")
    return mode


def _beats(challenger: StoreUpdate, incumbent: StoreUpdate) -> bool:
    from repro.protocols.base import entry_beats

    return entry_beats(challenger.entry, incumbent.entry)
