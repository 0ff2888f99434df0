"""The live gossip runtime: the paper's protocols over real sockets.

Everything else in this repository runs inside the single-process
deterministic simulator (``repro.sim``).  This package runs the *same*
protocol logic — the anti-entropy endpoints of
:mod:`repro.protocols.exchange` that the simulator drives, rumor
mongering's feedback counters, direct mail — between asyncio TCP peers:

* :mod:`repro.net.wire` — length-prefixed JSON message framing;
* :mod:`repro.net.membership` — the static peer roster (JSON/TOML);
* :mod:`repro.net.peer` — outbound connections with retry/backoff;
* :mod:`repro.net.node` — the :class:`GossipNode` runtime;
* :mod:`repro.net.runner` — N-node localhost clusters and the
  ``python -m repro live-demo`` measurement harness.
"""

from repro.net.membership import Membership, MembershipError, PeerInfo
from repro.net.node import GossipNode, NodeConfig
from repro.net.peer import InFlightBudget, Peer, PeerError, RetryPolicy
from repro.net.wire import Message, MessageType, WireError

__all__ = [
    "GossipNode",
    "InFlightBudget",
    "Membership",
    "MembershipError",
    "Message",
    "MessageType",
    "NodeConfig",
    "Peer",
    "PeerError",
    "PeerInfo",
    "RetryPolicy",
    "WireError",
]
