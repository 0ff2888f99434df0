"""The live gossip node: the paper's protocols over asyncio TCP.

A :class:`GossipNode` holds one :class:`~repro.cluster.site.Site` — its
replica store, timestamped by wall-clock time — and runs, concurrently:

* an **inbound server** answering PUSH / PULL_REQUEST / CHECKSUM /
  TREE / RUMOR / MAIL frames from peers;
* a periodic **anti-entropy loop** — pick a partner (uniform or a
  Section 3 spatial distribution over the roster) and hold one
  conversation of the configured Section 1.3 strategy (full compare,
  checksum plus recent updates, hierarchical checksums) with it;
* a faster **rumor loop** — Section 1.4 ticks: one conversation each
  of the configured :class:`~repro.protocols.rumor.RumorConfig` (push,
  pull or push-pull; feedback or blind, counter or coin).

Busy-server behavior mirrors :mod:`repro.sim.transport`: a node refuses
a conversation when ``connection_limit`` inbound conversations are
already in flight (the refusal is an ``ACK {"rejected": true}``), and a
refused or failed initiator of either loop *hunts* — redraws partners
up to ``hunt_limit`` more times.

**Who owns what.**  The anti-entropy strategies live in
:mod:`repro.protocols.exchange` and rumor mongering in
:mod:`repro.protocols.rumor` — what to send next, what to answer, what
to apply, when a rumor goes cold — as the endpoints the simulator runs
in process.  This module is their other driver and holds no protocol
logic: it turns each :class:`~repro.protocols.exchange.Frame` an
endpoint produces into a wire message and back (:meth:`GossipNode._message`,
:func:`_frame_of`), picks partners, retries, refuses when busy, and keeps
the books — stats, events and profiler phases come from the conversation's
report and the frames that passed.  Every update list leaves through
:meth:`GossipNode._update_payload`.  What the replica learns — a client
write, every list merged here as one batch — is accounted for by its
:class:`~repro.cluster.site.Site`, the same code that accounts for a
simulated site, so both runtimes emit the same events; the node keeps
only its receipt times and counters, by the batch's key column.  Rows
are built only for a delivery span that someone reads.  The node is its
site's one listener: what the site announces — a client write, a
certificate that obsolete data woke — becomes a hot rumor.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import random
import socket
import time
import traceback
from functools import partial
from itertools import compress, filterfalse
from operator import attrgetter
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.core.serialize import (
    SerializeError,
    decode_key,
    encode_batch,
    encode_timestamp,
)
from repro.cluster.site import Site
from repro.core.store import ApplyResult, StoreUpdate, UpdateList
from repro.core.timestamps import SimClock
from repro.net.membership import Membership, PeerInfo
from repro.net.peer import InFlightBudget, Peer, PeerError, RetryPolicy
from repro.obs.events import EventBus, EventKind
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import Profiler
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
from repro.protocols import rumor
from repro.protocols.base import ExchangeMode
from repro.protocols.exchange import ExchangeError, ExchangeReport, Frame, respond, strategy_for
from repro.protocols.rumor import RumorConfig
from repro.sim.transport import UNLIMITED

#: The frames that open or continue an anti-entropy conversation.
_EXCHANGE_REQUESTS = frozenset(
    {MessageType.PUSH, MessageType.PULL_REQUEST, MessageType.CHECKSUM, MessageType.TREE}
)

_WAS_NEWS = attrgetter("was_news")

#: A node's store has 1024 hash buckets, not the simulator's
#: ``DEFAULT_BUCKET_BITS`` 64: a simulation holds n small stores, a node
#: one large one, whose hierarchical repair ships whole leaves — at
#: 20 000 keys ≈ 20 rows per differing key here, ≈ 313 at 64.  Past 10
#: bits the cold fold slows down measurably.
NODE_BUCKET_BITS = 10

#: Outbound conversations a node keeps in flight at once.
MAX_OUTBOUND_CONVERSATIONS = 4


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
    rumor: RumorConfig = RumorConfig(k=2)
    connection_limit: int = 8         # inbound conversations in flight
    hunt_limit: int = 2               # extra partner draws after a rejection
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
        if self.rumor.policy != UNLIMITED:
            # connection_limit and hunt_limit are the node's policy.
            raise ValueError("rumor.policy must be UNLIMITED on a live node")
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
        "Inbound connections dropped on a malformed frame, a broken socket, "
        "a reply over the frame limit or a handler bug"),
    "step_errors": (
        "repro_step_errors_total",
        "Gossip-loop steps that raised an unexpected exception (a bug)"),
}


class NodeStats:
    """Counters a node keeps about its own traffic.

    Since the observability layer landed these are backed by a
    :class:`repro.obs.metrics.MetricsRegistry` — the same numbers are
    exported as labeled JSON series over the ``STATUS`` wire
    message — but the historical attribute API is preserved: read and
    ``+=`` the scalar counters (``stats.exchanges += 1``), and read
    ``frames_sent`` / ``frames_received`` as plain per-type dicts.

    ``received`` maps each key to the wall-clock moment this node first
    learned news about it — the per-site receipt times from which the
    demo harness computes the paper's ``t_ave``/``t_last`` delays.  It
    grows with the store; STATUS replies carry only
    :meth:`recent_receipts`.
    """

    #: Receipts a STATUS reply carries.  The whole map is 30 bytes
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
            # Up to a catch-up's every bucket.
            buckets=(0.0,) + tuple(float(1 << bits) for bits in range(NODE_BUCKET_BITS + 1)),
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
        self.stats = NodeStats()
        # Phase timers share the stats registry, so profiling numbers
        # travel in every STATUS snapshot.  Live granularity is one
        # network conversation — timing overhead is noise at that scale.
        self.profiler = Profiler(registry=self.stats.registry)
        self._rng = random.Random(seed if seed is not None else node_id)
        clock = SimClock(site=node_id, time_source=time.time)
        self.site = Site(
            node_id, clock, self._rng, self.bus, time.time, (self,),
            bucket_bits=NODE_BUCKET_BITS, profiler=self.profiler,
        )
        self.store = self.site.store
        self.peers: Dict[int, Peer] = {
            peer.node_id: Peer(
                peer, config.retry, observer=self._peer_event, max_frame=config.max_frame
            )
            for peer in membership.others(node_id)
        }
        self._selector = membership.selector(config.selector) if len(membership) > 1 else None
        self._budget = InFlightBudget(MAX_OUTBOUND_CONVERSATIONS)
        self._hot = rumor.HotList(on_hot=self._rumor_started)
        self._inbound_active = 0
        self._server: Optional[asyncio.base_events.Server] = None
        # Writers of the inbound connections _serve is answering; stop()
        # closes them so no peer keeps talking to a stopped node.
        self._inbound_writers: set = set()
        self._accepting = False
        self._tasks: List[asyncio.Task] = []
        self._started_at = time.time()

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
            except Exception as error:
                # A step counts its own peer failures and refusals, so
                # what arrives here is a bug.  It must not kill the
                # loop, and it must not be silent: counted, and reported
                # with its traceback, as ``_serve`` does for handlers.
                self.stats.step_errors += 1
                self.bus.emit(
                    EventKind.STEP_ERROR,
                    node=self.node_id,
                    step=getattr(step, "__name__", repr(step)),
                    error=type(error).__name__,
                    detail=traceback.format_exc(),
                )

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------

    def inject(self, key: Hashable, value: Any) -> StoreUpdate:
        """A client write at this node; becomes a hot rumor."""
        return self._injected(self.store.update(key, value))

    def delete(self, key: Hashable) -> StoreUpdate:
        return self._injected(self.store.delete(key))

    def _injected(self, update: StoreUpdate) -> StoreUpdate:
        # The receipt shares the events' timestamp, so a trace replay and
        # the node's own receipt record agree exactly.
        self._note_news([update.key], self.site.injected(update))
        return update

    def on_local_update(self, site_id: int, update: StoreUpdate) -> None:
        """The site's one listener: a client write, or a certificate the
        site woke, becomes a hot rumor."""
        self._hot.make_hot(update.key, update.entry)

    # ------------------------------------------------------------------
    # Outbound: one partner loop and one frame loop for both protocols
    # ------------------------------------------------------------------

    async def _hunt(self, talk) -> Any:
        """Draw a partner and hold ``talk(peer, attempt)`` with it; a
        refusal (``None``) or a failure redraws, up to ``hunt_limit``
        more times.  The first conversation's result, else ``None``."""
        for attempt in range(self.config.hunt_limit + 1):
            if attempt:
                self.stats.hunts += 1
            with self.profiler.phase("partner-selection"):
                partner_id = self._selector.choose(self.node_id, self._rng)
            try:
                async with self._budget:
                    with self.profiler.phase("exchange"):
                        outcome = await talk(self.peers[partner_id], attempt)
            except (PeerError, WireError, ExchangeError):
                self.stats.peer_failures += 1
                continue  # partner down: hunt for another, like a busy site
            if outcome is not None:
                return outcome
        return None

    async def _drive(self, peer: Peer, start) -> Any:
        """Hold the conversation ``start(absorb)`` builds with ``peer``:
        encode each request, decode each reply and resume the initiator.
        Returns what it returns, ``None`` when the partner refused."""
        sent_at = None  # the send clock of the reply being absorbed

        def absorb(updates: UpdateList) -> List[ApplyResult]:
            return self._merge(updates, peer.node_id, sent_at)

        conversation = start(absorb)
        try:
            request = next(conversation)
            while True:
                reply = await self._call(peer, self._message(request))
                if reply is None:
                    return None
                if request.kind == "tree":
                    self.stats.tree_rounds += 1
                elif request.kind != "pull-request":  # whose offer is a digest only
                    self.stats.updates_shipped += len(request.fields.get("updates", ()))
                answer, sent_at = _frame_of(reply)
                request = conversation.send(answer)
        except StopIteration as settled:
            return settled.value
        finally:
            conversation.close()

    async def run_anti_entropy_once(self) -> bool:
        """One anti-entropy round: pick a partner (hunting past
        refusals) and resolve differences.  True when an exchange ran."""
        if self._selector is None:
            return False
        config = self.config
        strategy = strategy_for(config.strategy, config.tau)

        async def talk(peer: Peer, attempt: int) -> Optional[ExchangeReport]:
            self.bus.emit(
                EventKind.EXCHANGE_STARTED,
                node=self.node_id,
                partner=peer.node_id,
                mode=config.mode.value,
                strategy=config.strategy,
                attempt=attempt,
            )
            began, entries = time.monotonic(), len(self.store)
            report = await self._drive(peer, partial(strategy.converse, self.store, config.mode))
            if report is not None:
                self._exchange_settled(peer, report, entries)
                self.stats.exchange_seconds.observe(time.monotonic() - began)
            return report

        return await self._hunt(talk) is not None

    def _exchange_settled(self, peer: Peer, report: ExchangeReport, entries: int) -> None:
        """The books on one exchange that began with ``entries`` here."""
        self.stats.exchanges += 1
        if report.via.startswith("checksum"):
            self.bus.emit(
                EventKind.CHECKSUM_HIT if report.via == "checksum" else EventKind.CHECKSUM_MISS,
                node=self.node_id,
                partner=peer.node_id,
            )
        elif report.via == "tree":
            self.stats.dirty_buckets.observe(report.buckets_resolved)
            if report.buckets_resolved:
                self.stats.entries_avoided += max(0, entries - report.wire_ab)
        if not report.full_compare:
            # Settled by checksums alone, or by a drill-down that shipped
            # only the dirty buckets: no full comparison was paid for.
            self.stats.checksum_successes += 1
        # Every entry that crossed the wire in either direction, so
        # summing ``exchange-settled`` events reproduces the paper's
        # update-traffic ``m`` exactly as the per-node
        # ``repro_updates_shipped_total`` counters do.
        self.bus.emit(
            EventKind.EXCHANGE_SETTLED,
            node=self.node_id,
            partner=peer.node_id,
            mode=self.config.mode.value,
            via=report.via,
            shipped=report.wire_ab,
            received=report.wire_ba,
        )

    async def run_rumor_once(self) -> bool:
        """One rumor tick: snapshot the hot list, hold one conversation
        (hunting past refusals and failures), settle what the snapshot's
        rumors met.  A tick that pulls is settled when the next one
        begins, for the pulls it answers bring feedback until then.  True
        when a conversation ran."""
        config = self.config.rumor
        if self._selector is None:
            return False
        if config.mode.pulls:
            self._settle_rumors()
        elif not self._hot:
            return False
        self._hot.begin()

        async def talk(peer: Peer, attempt: int) -> Optional[int]:
            shipped = await self._drive(peer, partial(rumor.converse, config, self._hot))
            if shipped is not None:
                self.bus.emit(
                    EventKind.RUMOR_SENT, node=self.node_id, partner=peer.node_id, shipped=shipped
                )
            return shipped

        ran = await self._hunt(talk) is not None
        if not config.mode.pulls:
            self._settle_rumors()
        return ran

    def _settle_rumors(self) -> None:
        for key, dead in self._hot.settle(self.config.rumor, self._rng):
            self.bus.emit(
                EventKind.RUMOR_DEAD, node=self.node_id, key=str(key), counter=dead.counter
            )

    def _rumor_started(self, key: Hashable) -> None:
        self.stats.rumors_started += 1
        self.bus.emit(EventKind.RUMOR_HOT, node=self.node_id, key=str(key))

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
                    # A reply over this node's own frame limit is refused
                    # here (WireError below), as an oversized request is.
                    frame = encode_message(reply, self.config.max_frame)
                    self.stats.count_sent(reply.type)
                    writer.write(frame)
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
                if message.type in _EXCHANGE_REQUESTS:
                    return self._answer_exchange(message)
                if message.type is MessageType.RUMOR:
                    return self._answer_rumor(message)
                if message.type is MessageType.MAIL:
                    return self._handle_mail(message)
            except (WireError, SerializeError, ExchangeError) as error:
                return self._ack({"error": str(error)})
            return None  # ACKs need no answer
        finally:
            self._inbound_active -= 1

    def _answer_exchange(self, message: Message) -> Message:
        """One anti-entropy request in, the responder's reply out; what
        the responder applied is accounted for as one batch."""
        request, sent_at = _frame_of(message)
        with self.profiler.phase("merge"):
            reply, applied, __ = respond(self.store, request, self.config.tau)
        now = self._account(applied.updates, applied.results, message.sender, sent_at)
        if message.type is MessageType.TREE:
            self.stats.tree_rounds += 1
        self.stats.updates_shipped += len(reply.fields.get("updates", ()))
        return self._message(reply, now)

    def _answer_rumor(self, message: Message) -> Message:
        """One rumor frame in, the responder's reply out."""
        request, sent_at = _frame_of(message)
        reply = rumor.respond(
            self._hot, request, partial(self._merge, src=message.sender, sent_at=sent_at)
        )
        self.stats.updates_shipped += len(reply.fields.get("updates", ()))
        return self._message(reply)

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
            elif payload.get("value") is None:
                return self._ack({"error": "a write needs a value; a delete says \"delete\": true"})
            else:
                update = self.inject(key, payload["value"])
            return self._ack(
                {"applied": True, "timestamp": encode_timestamp(update.timestamp)}
            )
        applied = self._absorb(payload, message.sender)
        return self._ack({"news": [result.was_news for __, result in applied]})

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

    async def _call(self, peer: Peer, message: Message) -> Optional[Message]:
        """One request/reply round trip; ``None`` when the partner
        refused the conversation (counted, and reported)."""
        self.stats.count_sent(message.type)
        reply = await peer.call(message)
        self.stats.count_received(reply.type)
        if reply.type is MessageType.ACK and reply.payload.get("rejected"):
            self.stats.rejections_out += 1
            self.bus.emit(
                EventKind.REJECTION, node=self.node_id, partner=peer.node_id, direction="out"
            )
            return None
        return reply

    def _message(self, frame: Frame, now: Optional[float] = None) -> Message:
        """The wire message for one frame of a conversation."""
        payload = frame.fields
        if "updates" in payload:
            payload = self._update_payload(payload, now, traced=frame.kind != "pull-request")
        return Message(MessageType(frame.kind), self.node_id, payload)

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

        ``traced`` says whether the send time ``now`` rides inside the
        batch; an offer the partner only reads as a digest goes without.
        """
        sent_at = None
        if traced:
            sent_at = time.time() if now is None else now
        return {**fields, "updates": encode_batch(UpdateList.of(fields["updates"]), sent_at)}

    def _absorb(
        self, payload: Dict[str, Any], src: int
    ) -> List[Tuple[StoreUpdate, ApplyResult]]:
        """The one way in: apply the update list ``payload`` carries
        from node ``src`` and account for it.  Returns every
        ``(update, result)`` pair, news or not."""
        updates, sent_at = payload_update_list(payload)
        return list(zip(updates, self._merge(updates, src, sent_at)))

    def _merge(self, updates: UpdateList, src: int, sent_at: Optional[float]) -> List[ApplyResult]:
        """Apply a decoded update list from ``src`` sent at ``sent_at``;
        one result per update, in order."""
        with self.profiler.phase("merge"):
            results = self.store.apply_updates(updates)
        self._account(updates, results, src, sent_at)
        return results

    def _account(
        self,
        updates: UpdateList,
        results: List[ApplyResult],
        src: int,
        sent_at: Optional[float],
    ) -> float:
        """Account for entries just applied from node ``src`` (``results``
        parallel to ``updates``): the site's events, then this node's
        receipt times and absorbed counter.  Returns the receipt time."""
        # The node delivered these itself (a rumor conversation makes its
        # news hot there), so it hears only what the site announces.
        now = self.site.absorb(updates, results, src, sent_at, via=self)
        news = list(compress(updates.keys, map(_WAS_NEWS, results)))
        self._note_news(news, now)
        self.stats.updates_absorbed += len(news)
        return now

    def _ack(self, payload: Dict[str, Any]) -> Message:
        return Message(type=MessageType.ACK, sender=self.node_id, payload=payload)

    def _note_news(self, keys: Iterable[Hashable], now: float) -> None:
        """Stamp the first receipt of news about each of ``keys``."""
        received = self.stats.received
        received.update(dict.fromkeys(filterfalse(received.__contains__, keys), now))

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


def _frame_of(message: Message) -> Tuple[Frame, Optional[float]]:
    """A decoded message as the frame the protocol endpoints read —
    update lists, tree nodes and bucket lists as Python values — plus
    the send clock ``sent_at`` that rode in its batch."""
    payload = message.payload
    updates, sent_at = payload_update_list(payload)
    fields = {**payload, "updates": updates}
    for field in ("nodes", "frontier"):
        if field in payload:
            fields[field] = payload_tree_nodes(payload, field)
    for field in ("dirty", "buckets"):
        if field in payload:
            fields[field] = payload_bucket_list(payload, field)
    if type(payload.get("keys")) is list:
        fields["keys"] = list(map(decode_key, payload["keys"]))
    return Frame(message.type.value, fields), sent_at
