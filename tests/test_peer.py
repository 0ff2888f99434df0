"""Outbound peer management: timeouts, retries, exponential backoff.

Every failure mode a live link exhibits is simulated with a deliberately
misbehaving localhost listener: connection refused, accept-then-stall,
and disconnection in the middle of a frame.
"""

import asyncio
import socket

import pytest

from repro.net.membership import PeerInfo
from repro.net.peer import InFlightBudget, Peer, PeerError, RetryPolicy
from repro.net.wire import Message, MessageType, WireError, encode_message, read_message

FAST = RetryPolicy(
    connect_timeout=0.5,
    io_timeout=0.25,
    attempts=3,
    backoff_base=0.01,
    backoff_factor=2.0,
    backoff_max=0.05,
)

PING = Message(MessageType.ACK, sender=0, payload={"ping": True})


def free_port() -> int:
    """A port that was just free; nothing listens on it afterwards."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def peer_for(port: int, policy: RetryPolicy = FAST) -> Peer:
    return Peer(PeerInfo(node_id=9, host="127.0.0.1", port=port), policy)


class TestRetryPolicy:
    def test_backoff_schedule_grows_exponentially(self):
        policy = RetryPolicy(attempts=5, backoff_base=0.1, backoff_factor=2.0, backoff_max=10.0)
        assert policy.backoff_schedule() == [0.1, 0.2, 0.4, 0.8]

    def test_backoff_schedule_is_capped(self):
        policy = RetryPolicy(attempts=6, backoff_base=1.0, backoff_factor=10.0, backoff_max=3.0)
        assert policy.backoff_schedule() == [1.0, 3.0, 3.0, 3.0, 3.0]

    def test_single_attempt_means_no_backoff(self):
        assert RetryPolicy(attempts=1).backoff_schedule() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(io_timeout=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class TestConnectionRefused:
    def test_all_attempts_fail_then_peer_error(self):
        async def scenario():
            peer = peer_for(free_port())
            with pytest.raises(PeerError, match="attempts"):
                await peer.call(PING)
            return peer

        peer = asyncio.run(scenario())
        assert peer.failures == FAST.attempts
        assert peer.exhausted == 1

    def test_recovers_when_listener_appears_between_attempts(self):
        """First attempt refused; the server comes up before the retry."""

        async def scenario():
            port = free_port()
            peer = peer_for(port, RetryPolicy(
                connect_timeout=0.5, io_timeout=0.5, attempts=3,
                backoff_base=0.2, backoff_factor=1.0, backoff_max=0.2,
            ))

            async def echo(reader, writer):
                message = await read_message(reader)
                writer.write(encode_message(
                    Message(MessageType.ACK, 9, {"echo": message.payload})
                ))
                await writer.drain()

            async def late_server():
                await asyncio.sleep(0.1)  # within the first backoff window
                return await asyncio.start_server(echo, "127.0.0.1", port)

            server_task = asyncio.ensure_future(late_server())
            reply = await peer.call(PING)
            server = await server_task
            server.close()
            await server.wait_closed()
            await peer.close()
            return peer, reply

        peer, reply = asyncio.run(scenario())
        assert reply.payload == {"echo": {"ping": True}}
        assert peer.failures >= 1     # the refused attempt was counted


class TestAcceptThenStall:
    def test_io_timeout_expires_and_retries(self):
        async def scenario():
            accepted = 0

            async def stall(reader, writer):
                nonlocal accepted
                accepted += 1
                # Never reply: swallow the request until the peer gives
                # up and hangs up, so this handler ends before the loop
                # does — one cancelled at loop shutdown is logged by
                # asyncio as an error in a server callback.
                await reader.read()
                writer.close()

            server = await asyncio.start_server(stall, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            peer = peer_for(port)
            with pytest.raises(PeerError, match="attempts"):
                await peer.call(PING)
            server.close()
            await server.wait_closed()
            return accepted, peer

        accepted, peer = asyncio.run(scenario())
        # Every attempt reconnected (the stalled connection is torn down).
        assert accepted == FAST.attempts
        assert peer.failures == FAST.attempts


class TestMidFrameDisconnect:
    def test_partial_frame_is_a_retryable_failure(self):
        async def scenario():
            async def tease(reader, writer):
                await read_message(reader)
                # Start a frame, then vanish mid-body.
                frame = encode_message(Message(MessageType.ACK, 9, {"pad": "x" * 200}))
                writer.write(frame[: len(frame) // 2])
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(tease, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            peer = peer_for(port)
            with pytest.raises(PeerError):
                await peer.call(PING)
            server.close()
            await server.wait_closed()
            return peer

        peer = asyncio.run(scenario())
        assert peer.failures == FAST.attempts

    def test_recovers_when_peer_heals_mid_retries(self):
        """One broken reply, then a healthy one: call succeeds."""

        async def scenario():
            calls = 0

            async def flaky(reader, writer):
                nonlocal calls
                calls += 1
                message = await read_message(reader)
                frame = encode_message(Message(MessageType.ACK, 9, {"n": calls}))
                if calls == 1:
                    writer.write(frame[:3])   # cut off mid-header
                    await writer.drain()
                    writer.close()
                    return
                writer.write(frame)
                await writer.drain()

            server = await asyncio.start_server(flaky, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            peer = peer_for(port)
            reply = await peer.call(PING)
            server.close()
            await server.wait_closed()
            await peer.close()
            return peer, reply

        peer, reply = asyncio.run(scenario())
        assert reply.payload == {"n": 2}
        assert peer.failures == 1
        assert peer.exhausted == 0


class TestConnectionReuse:
    def test_two_calls_share_one_connection(self):
        async def scenario():
            connections = 0

            async def echo(reader, writer):
                nonlocal connections
                connections += 1
                while True:
                    message = await read_message(reader)
                    if message is None:
                        return
                    writer.write(encode_message(Message(MessageType.ACK, 9, {})))
                    await writer.drain()

            server = await asyncio.start_server(echo, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            peer = peer_for(port)
            await peer.call(PING)
            await peer.call(PING)
            server.close()
            await server.wait_closed()
            await peer.close()
            return connections, peer

        connections, peer = asyncio.run(scenario())
        assert connections == 1
        assert peer.calls == 2
        assert peer.failures == 0


class TestFrameLimit:
    def test_a_reply_over_the_clients_limit_is_refused(self):
        """A node hands its ``max_frame`` to its peers: a 4 KiB reply to a
        client limited to 1 KiB is a ``WireError`` on every attempt, never
        a reply, while a client at the default limit takes it."""

        async def scenario():
            handlers = []

            async def verbose(reader, writer):
                handlers.append(asyncio.current_task())
                try:
                    while await read_message(reader) is not None:
                        writer.write(encode_message(Message(MessageType.ACK, 9, {"pad": "x" * 4096})))
                        await writer.drain()
                except (ConnectionError, WireError):
                    pass  # the limited client hangs up mid-reply
                finally:
                    writer.close()

            server = await asyncio.start_server(verbose, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            info = PeerInfo(node_id=9, host="127.0.0.1", port=port)
            limited, default = Peer(info, FAST, max_frame=1024), Peer(info, FAST)
            with pytest.raises(PeerError) as refused:
                await limited.call(PING)
            accepted = await default.call(PING)
            await default.close()
            await asyncio.wait(handlers, timeout=5.0)
            server.close()
            await server.wait_closed()
            return refused.value, accepted, limited

        refused, accepted, limited = asyncio.run(scenario())
        assert isinstance(refused.__cause__, WireError)
        assert "exceeds the 1024-byte limit" in str(refused.__cause__)
        assert limited.failures == FAST.attempts
        assert len(accepted.payload["pad"]) == 4096


class TestInFlightBudget:
    def test_bounds_concurrency(self):
        async def scenario():
            budget = InFlightBudget(2)
            peak = 0

            async def hold():
                nonlocal peak
                async with budget:
                    peak = max(peak, budget.in_flight)
                    await asyncio.sleep(0.02)

            await asyncio.gather(*[hold() for __ in range(6)])
            return peak, budget

        peak, budget = asyncio.run(scenario())
        assert peak == 2
        assert budget.in_flight == 0
        assert budget.available == 2

    def test_limit_validated(self):
        with pytest.raises(ValueError):
            InFlightBudget(0)
