"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import asyncio
import contextlib
import gc
import logging
import socket
from typing import List

import pytest

from repro.core.store import ReplicaStore
from repro.core.timestamps import SequenceClock, Timestamp
from repro.net.membership import Membership
from repro.net.node import GossipNode, NodeConfig
from repro.net.peer import RetryPolicy
from repro.net.wire import Message, encode_message, read_message


@pytest.fixture
def store() -> ReplicaStore:
    """A store for site 0 with a deterministic sequence clock."""
    return ReplicaStore(site_id=0, clock=SequenceClock(site=0))


def make_store(site_id: int, start: float = 0.0) -> ReplicaStore:
    return ReplicaStore(site_id=site_id, clock=SequenceClock(site=site_id, start=start))


def ts(time: float, site: int = 0, seq: int = 0) -> Timestamp:
    return Timestamp(time=time, site=site, sequence=seq)


#: ``NodeConfig`` overrides for live tests: no gossip timer fires, so
#: every conversation is one the test drove; a dead peer fails fast.
QUIET = dict(
    anti_entropy_interval=3600.0,
    rumor_interval=3600.0,
    retry=RetryPolicy(connect_timeout=0.5, io_timeout=1.0, attempts=1),
)


@contextlib.asynccontextmanager
async def cluster(n: int = 2, **overrides):
    """``n`` started gossip nodes on pre-bound localhost ports, with
    :data:`QUIET` timers unless ``overrides`` say otherwise."""
    config = NodeConfig(**{**QUIET, **overrides})
    socks = []
    for __ in range(n):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        socks.append(sock)
    membership = Membership.localhost([s.getsockname()[1] for s in socks])
    nodes: List[GossipNode] = []
    try:
        for node_id, sock in enumerate(socks):
            node = GossipNode(node_id, membership, config)
            await node.start(sock=sock)
            nodes.append(node)
        yield nodes
    finally:
        for node in nodes:
            await node.stop()


async def raw_round_trip(port: int, request: Message) -> tuple[bytes, Message]:
    """One conversation on a fresh TCP connection; returns the reply's
    raw body bytes and its decoded form."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(encode_message(request))
        await writer.drain()
        reply = await asyncio.wait_for(read_message(reader), 2.0)
        assert reply is not None
    finally:
        writer.close()
    # Re-encode to recover the body bytes the server actually chose.
    return encode_message(reply)[4:], reply


@pytest.fixture(autouse=True)
def no_asyncio_errors():
    """Fail any test during which the ``asyncio`` logger records an
    ERROR: an unhandled exception in a server callback, a task exception
    nobody retrieved.  Such damage is silent — the loop logs and carries
    on — so without this a suite can be green over a crashing server."""
    records = []
    handler = logging.Handler(level=logging.ERROR)
    handler.emit = records.append
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield
        # A dropped task reports its exception when collected; one made
        # by this test is young, and a full collection per test would
        # double the suite's run time.
        gc.collect(1)
    finally:
        logger.removeHandler(handler)
    if records:
        pytest.fail(
            "asyncio logged errors during this test:\n"
            + "\n".join(record.getMessage() for record in records)
        )
