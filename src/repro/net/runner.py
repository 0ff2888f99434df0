"""Launch and measure localhost gossip clusters.

:class:`LiveCluster` boots N :class:`~repro.net.node.GossipNode`\\ s on
real TCP sockets (pre-bound ephemeral ports, so parallel test runs
never collide), and talks to them the way any external client would:
over the wire, with MAIL injections and STATUS queries.

:func:`live_demo` is the measurement harness behind
``python -m repro live-demo``: inject one update, optionally kill and
restart a node mid-run, wait for every store's checksum to agree, and
report the paper's observables.  All nodes share one
:class:`~repro.obs.events.EventBus`; a
:class:`~repro.obs.convergence.ConvergenceTracker` sink on that bus is
the *only* source of the reported ``t_ave`` / ``t_last`` / ``residue``
/ traffic numbers — so replaying a ``--trace-file`` JSONL through
:meth:`ConvergenceTracker.from_events` reproduces the printed report
exactly.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
import math
import socket
import time
from typing import Any, Dict, List, Optional

from repro.net.membership import Membership
from repro.net.node import GossipNode, NodeConfig
from repro.net.peer import Peer, PeerError, RetryPolicy
from repro.net.wire import Message, MessageType
from repro.obs.convergence import ConvergenceTracker
from repro.obs.events import HARNESS_NODE, EventBus, EventKind, JsonlTraceWriter

#: Sender id the harness uses on the wire; negative ids are reserved
#: for clients that are not roster members.
CLIENT_ID = -1


def _bind_ephemeral(n: int, host: str = "127.0.0.1") -> List[socket.socket]:
    """Pre-bind ``n`` listening sockets on ephemeral ports.

    Binding before building the roster removes the pick-a-port race
    entirely: the ports in the membership file are already ours.
    """
    socks = []
    for __ in range(n):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, 0))
        socks.append(sock)
    return socks


class LiveCluster:
    """N gossip nodes on localhost, plus a client-side view of them."""

    def __init__(
        self,
        membership: Membership,
        config: NodeConfig,
        bus: Optional[EventBus] = None,
    ):
        self.membership = membership
        self.config = config
        # One bus for the whole cluster: every node (including ones
        # restarted after a kill) emits into the same event stream.
        self.bus = bus if bus is not None else EventBus()
        self.nodes: Dict[int, GossipNode] = {}
        self._probes: Dict[int, Peer] = {}

    @classmethod
    async def launch(
        cls,
        n: int,
        config: NodeConfig = NodeConfig(),
        host: str = "127.0.0.1",
        bus: Optional[EventBus] = None,
    ) -> "LiveCluster":
        if n < 2:
            raise ValueError("a cluster needs at least two nodes")
        socks = _bind_ephemeral(n, host)
        ports = [sock.getsockname()[1] for sock in socks]
        membership = Membership.localhost(ports, host=host)
        cluster = cls(membership, config, bus=bus)
        try:
            for node_id, sock in enumerate(socks):
                node = GossipNode(node_id, membership, config, bus=cluster.bus)
                await node.start(sock=sock)
                cluster.nodes[node_id] = node
        except BaseException:
            await cluster.stop()
            raise
        return cluster

    async def stop(self) -> None:
        for node in self.nodes.values():
            await node.stop()
        for probe in self._probes.values():
            await probe.close()
        self._probes.clear()

    # -- node churn --------------------------------------------------------

    async def kill(self, node_id: int) -> None:
        """Stop a node abruptly; its in-memory store is lost."""
        node = self.nodes.pop(node_id)
        await node.stop()
        probe = self._probes.pop(node_id, None)
        if probe is not None:
            await probe.close()

    async def restart(self, node_id: int) -> GossipNode:
        """Bring a killed node back, empty, on its roster address.

        The restarted replica starts from nothing — anti-entropy must
        catch it up, exactly like the paper's recovering site.
        """
        if node_id in self.nodes:
            raise ValueError(f"node {node_id} is still running")
        node = GossipNode(node_id, self.membership, self.config, bus=self.bus)
        await node.start()
        self.nodes[node_id] = node
        return node

    # -- wire-level client operations -------------------------------------

    def _probe_peer(self, node_id: int) -> Peer:
        probe = self._probes.get(node_id)
        if probe is None:
            probe = Peer(
                self.membership.get(node_id),
                RetryPolicy(connect_timeout=2.0, io_timeout=5.0, attempts=2),
            )
            self._probes[node_id] = probe
        return probe

    async def inject(self, node_id: int, key: str, value: Any) -> Message:
        """Client write, over TCP, at one node."""
        return await self._probe_peer(node_id).call(
            Message(
                type=MessageType.MAIL,
                sender=CLIENT_ID,
                payload={"key": key, "value": value},
            )
        )

    async def delete_key(self, node_id: int, key: str) -> Message:
        """Client delete, over TCP: the node issues a death certificate."""
        return await self._probe_peer(node_id).call(
            Message(
                type=MessageType.MAIL,
                sender=CLIENT_ID,
                payload={"key": key, "delete": True},
            )
        )

    async def read(self, node_id: int, key: str) -> Dict[str, Any]:
        """Client read, over TCP: one node's current view of ``key``
        (``found``, ``timestamp``, ``value``), without touching gossip."""
        reply = await self._probe_peer(node_id).call(
            Message(
                type=MessageType.MAIL,
                sender=CLIENT_ID,
                payload={"read": key},
            )
        )
        return reply.payload

    async def status(self, node_id: int) -> Dict[str, Any]:
        """STATUS introspection of one node: identity, census, and its
        full metrics-registry snapshot (served even while gossip
        conversations are being refused)."""
        reply = await self._probe_peer(node_id).call(
            Message(type=MessageType.STATUS, sender=CLIENT_ID)
        )
        return reply.payload

    async def status_all(self) -> Dict[int, Dict[str, Any]]:
        results: Dict[int, Dict[str, Any]] = {}
        for node_id in sorted(self.nodes):
            results[node_id] = await self.status(node_id)
        return results

    async def converged(self, key: Optional[str] = None) -> bool:
        """All running nodes agree (equal checksums, non-empty stores);
        with ``key``, their stores must additionally hold it."""
        try:
            statuses = await self.status_all()
            if not statuses:
                return False
            checksums = {s["checksum"] for s in statuses.values()}
            if len(checksums) != 1 or not all(s["entries"] for s in statuses.values()):
                return False
            if key is None:
                return True
            # Equal stores: one node's answer is every node's.  A node
            # at its connection limit refuses the read; ask the next.
            for node_id in statuses:
                reply = await self.read(node_id, key)
                if "found" in reply:
                    return reply["found"]
            return False
        except PeerError:
            return False

    async def wait_converged(
        self, key: Optional[str] = None, timeout: float = 30.0, poll: float = 0.05
    ) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if await self.converged(key):
                return True
            await asyncio.sleep(poll)
        return False


# ---------------------------------------------------------------------------
# The live-demo harness
# ---------------------------------------------------------------------------


@dataclasses.dataclass(slots=True)
class NodeReport:
    """Per-site traffic as seen by one node's own counters."""

    node_id: int
    entries: int
    exchanges: int
    updates_shipped: int
    updates_absorbed: int
    frames_sent: int
    frames_received: int
    rejections: int
    receipt_delay: Optional[float]   # seconds after injection; None = never


@dataclasses.dataclass(slots=True)
class ClusterReport:
    """What one live-demo run measured.

    The headline numbers (``t_ave``, ``t_last``, ``residue``,
    ``updates_per_site``) come from the cluster-wide event stream via
    :class:`~repro.obs.convergence.ConvergenceTracker`; the per-node
    rows come from each node's own counters, read over the wire.
    """

    n: int
    key: str
    converged: bool
    wall_seconds: float              # injection -> converged
    t_ave: float                     # paper delay metrics (seconds)
    t_last: float
    residue: float
    updates_per_site: float          # the paper's m, over live nodes
    nodes: List[NodeReport]
    churned_node: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (``--json``); NaN delays become null."""
        blob = dataclasses.asdict(self)
        for field in ("t_ave", "t_last"):
            if math.isnan(blob[field]):
                blob[field] = None
        return blob

    def lines(self) -> List[str]:
        out = [
            f"nodes={self.n} key={self.key!r} converged={self.converged} "
            f"in {self.wall_seconds:.2f}s wall",
            f"delay: t_ave={self.t_ave:.3f}s t_last={self.t_last:.3f}s "
            f"residue={self.residue:.3f} updates/site={self.updates_per_site:.1f}",
        ]
        if self.churned_node is not None:
            out.append(
                f"churn: node {self.churned_node} was killed mid-run and "
                "restarted empty; anti-entropy caught it up"
            )
        header = (
            f"{'node':>4} {'entries':>7} {'exchanges':>9} {'upd sent':>8} "
            f"{'upd recv':>8} {'frames out':>10} {'frames in':>9} "
            f"{'rejects':>7} {'delay(s)':>8}"
        )
        out.append(header)
        for row in self.nodes:
            delay = f"{row.receipt_delay:.3f}" if row.receipt_delay is not None else "-"
            out.append(
                f"{row.node_id:>4} {row.entries:>7} {row.exchanges:>9} "
                f"{row.updates_shipped:>8} {row.updates_absorbed:>8} "
                f"{row.frames_sent:>10} {row.frames_received:>9} "
                f"{row.rejections:>7} {delay:>8}"
            )
        return out


def _counter_total(status: Dict[str, Any], family: str) -> int:
    """A STATUS snapshot's counter, summed over its labeled series."""
    return int(sum(cell["value"] for cell in status["metrics"][family]["series"]))


async def live_demo(
    nodes: int = 8,
    config: NodeConfig = NodeConfig(),
    churn: bool = False,
    timeout: float = 30.0,
    key: str = "printer:bldg-35",
    value: Any = "10.0.7.12",
    trace_file: Optional[str] = None,
    metrics_file: Optional[str] = None,
) -> ClusterReport:
    """Boot a cluster, inject one update, measure its epidemic.

    With ``churn=True`` the highest-numbered node is killed right after
    the injection and restarted (with an empty store) once the others
    have converged — demonstrating that losing a node never blocks the
    rest, and that anti-entropy repopulates a recovered replica.

    ``trace_file`` streams every bus event to a JSONL file
    (:class:`~repro.obs.events.JsonlTraceWriter`); the run opens with a
    ``run-started`` event so :meth:`ConvergenceTracker.from_events` can
    recompute this function's exact report from the trace alone.
    ``metrics_file`` dumps each node's final STATUS snapshot (metrics
    registry included) as one JSON object keyed by node id.
    """
    bus = EventBus()
    tracker = ConvergenceTracker(n=nodes, key=key)
    bus.add_sink(tracker.observe)
    # flush_every=1: a live demo may be SIGTERMed (CI timeouts, ^C) and
    # the tail of the trace is exactly the part that matters then.
    writer = (
        JsonlTraceWriter(trace_file, flush_every=1)
        if trace_file is not None
        else None
    )
    if writer is not None:
        bus.add_sink(writer)
    try:
        cluster = await LiveCluster.launch(nodes, config, bus=bus)
        victim = max(cluster.nodes) if churn else None
        try:
            bus.emit(
                EventKind.RUN_STARTED,
                node=HARNESS_NODE,
                n=nodes,
                key=key,
                churn=churn,
            )
            injected_at = time.time()
            await cluster.inject(0, key, value)
            if victim is not None:
                await cluster.kill(victim)
                survivors_ok = await cluster.wait_converged(key, timeout=timeout)
                await cluster.restart(victim)
                converged = survivors_ok and await cluster.wait_converged(
                    key, timeout=timeout
                )
            else:
                converged = await cluster.wait_converged(key, timeout=timeout)
            wall = time.time() - injected_at
            statuses = await cluster.status_all()
        finally:
            await cluster.stop()
    finally:
        if writer is not None:
            bus.remove_sink(writer)
            writer.close()
    if metrics_file is not None:
        with open(metrics_file, "w", encoding="utf-8") as handle:
            json.dump(
                {str(node_id): status for node_id, status in statuses.items()},
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")

    rows: List[NodeReport] = []
    for node_id, status in sorted(statuses.items()):
        total = functools.partial(_counter_total, status)
        rows.append(
            NodeReport(
                node_id=node_id,
                entries=status["entries"],
                exchanges=total("repro_exchanges_total"),
                updates_shipped=total("repro_updates_shipped_total"),
                updates_absorbed=total("repro_updates_absorbed_total"),
                frames_sent=total("repro_frames_sent_total"),
                frames_received=total("repro_frames_received_total"),
                rejections=total("repro_rejections_in_total")
                + total("repro_rejections_out_total"),
                receipt_delay=tracker.delay_of(node_id),
            )
        )
    return ClusterReport(
        n=nodes,
        key=key,
        converged=converged,
        wall_seconds=wall,
        t_ave=tracker.t_ave,
        t_last=tracker.t_last,
        residue=tracker.residue,
        updates_per_site=tracker.traffic_per_site,
        nodes=rows,
        churned_node=victim,
    )


async def query_status(config_path: str, node_id: int) -> Dict[str, Any]:
    """Ask one roster node for its STATUS snapshot, over TCP.

    The client side of ``python -m repro status --config ... --id N``:
    loads the membership roster, sends one ``STATUS`` frame, and
    returns the reply payload (identity, S/I/R census, receipt times,
    metrics-registry snapshot).
    """
    membership = Membership.load(config_path)
    peer = Peer(
        membership.get(node_id),
        RetryPolicy(connect_timeout=2.0, io_timeout=5.0, attempts=2),
    )
    try:
        reply = await peer.call(Message(type=MessageType.STATUS, sender=CLIENT_ID))
    finally:
        await peer.close()
    return reply.payload


async def serve_node(
    config_path: str, node_id: int, node_config: NodeConfig = NodeConfig()
) -> None:
    """Run one roster node until cancelled (``python -m repro node``)."""
    membership = Membership.load(config_path)
    node = GossipNode(node_id, membership, node_config)
    await node.start()
    try:
        await asyncio.Event().wait()  # serve forever
    finally:
        await node.stop()
