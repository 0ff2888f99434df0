"""Outbound connection management: one :class:`Peer` per remote node.

A gossip conversation is a request/reply round trip.  Real links fail
in all the ways the paper's "unreliable network" phrase glosses over:
connections are refused while a node restarts, a peer accepts and then
stalls, a frame is cut off mid-send.  :meth:`Peer.call` wraps one
round trip in per-attempt timeouts and retries with exponential
backoff, reconnecting after any failure.

The :class:`InFlightBudget` mirrors the simulator's connection limits
(:mod:`repro.sim.transport`): a node holds at most ``limit`` outbound
conversations at once, just as the paper's servers could hold only a
few simultaneous conversations.  (The *inbound* half of that policy —
rejection and hunting — lives in :mod:`repro.net.node`.)
"""

from __future__ import annotations

import asyncio
import dataclasses
from typing import Callable, List, Optional, Tuple

from repro.net.membership import PeerInfo
from repro.net.wire import MAX_FRAME_BYTES, Message, WireError, encode_message, read_message

#: Observer signature: ``observer(kind, peer_info, attempt, error)`` with
#: ``kind`` one of ``"retry"`` (another attempt follows) or ``"failure"``
#: (the call is exhausted).  Used by :class:`repro.net.node.GossipNode`
#: to emit ``peer-retry`` / ``peer-failure`` observability events.
PeerObserver = Callable[[str, PeerInfo, int, BaseException], None]


class PeerError(Exception):
    """A conversation with a peer failed after all retries."""


@dataclasses.dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Timeouts and exponential backoff for one peer's conversations.

    ``attempts`` counts total tries; between consecutive tries the
    client sleeps ``backoff_base * backoff_factor**i`` seconds, capped
    at ``backoff_max``.
    """

    connect_timeout: float = 2.0
    io_timeout: float = 5.0
    attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.connect_timeout <= 0 or self.io_timeout <= 0:
            raise ValueError("timeouts must be positive")
        if self.backoff_base < 0 or self.backoff_factor < 1 or self.backoff_max < 0:
            raise ValueError("bad backoff parameters")

    def backoff_schedule(self) -> List[float]:
        """The sleep before each retry (``attempts - 1`` values)."""
        return [
            min(self.backoff_base * self.backoff_factor**i, self.backoff_max)
            for i in range(self.attempts - 1)
        ]


#: Failures worth retrying: refused/reset connections, timeouts, and
#: broken frames (a peer dying mid-send surfaces as WireError).
_RETRYABLE = (OSError, asyncio.TimeoutError, TimeoutError, WireError)


class Peer:
    """A client for one remote gossip node.

    The underlying TCP connection is cached between calls and replaced
    after any failure.  One ``Peer`` serves one conversation at a time
    (an internal lock serializes concurrent callers), matching the
    paper's model of a conversation as an exclusive connection.

    ``bytes_sent`` / ``frames_sent`` count outbound request traffic
    (framing prefix included).  ``max_frame`` bounds every frame this
    client writes or reads — a node passes its own
    :attr:`~repro.net.node.NodeConfig.max_frame`, so a reply over that
    limit is refused here as an oversized request is at the node.
    """

    def __init__(
        self,
        info: PeerInfo,
        policy: RetryPolicy = RetryPolicy(),
        observer: Optional[PeerObserver] = None,
        max_frame: int = MAX_FRAME_BYTES,
    ):
        self.info = info
        self.policy = policy
        self.observer = observer
        self.max_frame = max_frame
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()
        self.calls = 0
        self.failures = 0        # failed attempts (may be retried)
        self.exhausted = 0       # calls that failed every attempt
        self.bytes_sent = 0      # request frames, framing prefix included
        self.frames_sent = 0

    @property
    def node_id(self) -> int:
        return self.info.node_id

    @property
    def connected(self) -> bool:
        return self._writer is not None and not self._writer.is_closing()

    async def call(self, message: Message) -> Message:
        """One request/reply round trip, with retry and backoff."""
        policy = self.policy
        backoffs = policy.backoff_schedule()
        async with self._lock:
            self.calls += 1
            last_error: Optional[BaseException] = None
            for attempt in range(policy.attempts):
                try:
                    return await self._call_once(message)
                except _RETRYABLE as error:
                    last_error = error
                    self.failures += 1
                    await self._teardown()
                    if attempt < len(backoffs):
                        self._observe("retry", attempt, error)
                        await asyncio.sleep(backoffs[attempt])
            self.exhausted += 1
            self._observe("failure", policy.attempts, last_error)
            raise PeerError(
                f"{self.info}: no reply after {policy.attempts} attempts "
                f"({type(last_error).__name__}: {last_error})"
            ) from last_error

    def _observe(self, kind: str, attempt: int, error: Optional[BaseException]) -> None:
        if self.observer is not None and error is not None:
            try:
                self.observer(kind, self.info, attempt, error)
            except Exception:
                pass  # observability must never break the conversation

    async def _call_once(self, message: Message) -> Message:
        reader, writer = await self._ensure_connected()
        frame = encode_message(message, self.max_frame)
        self.bytes_sent += len(frame)
        self.frames_sent += 1
        writer.write(frame)
        await asyncio.wait_for(writer.drain(), self.policy.io_timeout)
        reply = await asyncio.wait_for(
            read_message(reader, self.max_frame), self.policy.io_timeout
        )
        if reply is None:
            raise WireError("peer closed the connection before replying")
        return reply

    async def _ensure_connected(
        self,
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if self.connected:
            return self._reader, self._writer  # type: ignore[return-value]
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.info.host, self.info.port),
            self.policy.connect_timeout,
        )
        self._reader, self._writer = reader, writer
        return reader, writer

    async def _teardown(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def close(self) -> None:
        async with self._lock:
            await self._teardown()


class InFlightBudget:
    """Bounds a node's concurrent outbound conversations.

    The asyncio analogue of the simulator's
    :class:`repro.sim.transport.ConnectionPolicy` limit, on the
    initiator side: gossip loops acquire a slot before starting an
    exchange, so a slow peer cannot pile up unbounded conversations.

    Use as an async context manager::

        async with budget:
            await peer.call(...)
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("in-flight limit must be >= 1")
        self.limit = limit
        self._semaphore = asyncio.Semaphore(limit)
        self._active = 0

    @property
    def in_flight(self) -> int:
        return self._active

    @property
    def available(self) -> int:
        return self.limit - self._active

    async def __aenter__(self) -> "InFlightBudget":
        await self._semaphore.acquire()
        self._active += 1
        return self

    async def __aexit__(self, *exc_info) -> None:
        self._active -= 1
        self._semaphore.release()
