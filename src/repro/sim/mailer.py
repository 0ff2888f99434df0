"""An unreliable queued mail service (Section 1.2).

``PostMail`` in the paper "is expected to be nearly, but not completely,
reliable": it queues messages on stable storage so senders are not
delayed and server crashes lose nothing, yet messages may still be
discarded when queues overflow or destinations stay unreachable.  Those
are exactly the failure modes modeled here:

* each destination has a bounded queue of the letters posted to it and
  not yet delivered; posting to a full queue drops the message
  (**overflow**), and each delivery frees its slot;
* each message is independently lost in transit with probability
  ``loss_probability`` (**unreachable destination / transport loss**);
* delivery takes ``latency`` simulated time units (default: one cycle).

The mail system drives deliveries through the discrete-event engine so
direct mail interleaves naturally with cycle-based epidemics.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Callable, Deque, Dict, Optional

from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


@dataclasses.dataclass(slots=True)
class MailStats:
    posted: int = 0
    delivered: int = 0
    dropped_overflow: int = 0
    dropped_loss: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_overflow + self.dropped_loss

    @property
    def delivery_ratio(self) -> float:
        if self.posted == 0:
            return 1.0
        return self.delivered / self.posted


@dataclasses.dataclass(frozen=True, slots=True)
class Letter:
    source: int
    destination: int
    payload: Any
    posted_at: float


class Mailbox:
    """The letters posted to one site and not yet delivered: a bounded
    FIFO (one latency for every letter, so they arrive in order)."""

    __slots__ = ("capacity", "_queue")

    def __init__(self, capacity: Optional[int] = None):
        self.capacity = capacity
        self._queue: Deque[Letter] = deque()

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._queue) >= self.capacity

    def push(self, letter: Letter) -> bool:
        if self.full:
            return False
        self._queue.append(letter)
        return True

    def pop(self) -> Letter:
        """Remove and return the oldest letter."""
        return self._queue.popleft()


class MailSystem:
    """Routes letters between sites with loss, overflow and latency."""

    def __init__(
        self,
        simulator: Simulator,
        rng: RngRegistry,
        loss_probability: float = 0.0,
        mailbox_capacity: Optional[int] = None,
        latency: float = 1.0,
    ):
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.simulator = simulator
        self._rng = rng.stream("mail")
        self.loss_probability = loss_probability
        self.mailbox_capacity = mailbox_capacity
        self.latency = latency
        self.stats = MailStats()
        self._mailboxes: Dict[int, Mailbox] = {}
        self._on_delivery: Optional[Callable[[Letter], None]] = None
        # delivery time -> the not-yet-fired batch of deliveries due
        # then.  Letters sharing a delivery instant (a direct-mail fanout
        # is n-1 letters with one latency) ride one engine event.
        self._open_batches: Dict[float, list] = {}

    def on_delivery(self, callback: Callable[[Letter], None]) -> None:
        """Invoke ``callback(letter)`` whenever a letter is delivered."""
        self._on_delivery = callback

    def post(self, source: int, destination: int, payload: Any) -> None:
        """Queue a letter for delivery (the sender is never delayed)."""
        self.stats.posted += 1
        if self._rng.random() < self.loss_probability:
            self.stats.dropped_loss += 1
            return
        now = self.simulator.now
        box = self._mailboxes.get(destination)
        if box is None:
            box = self._mailboxes[destination] = Mailbox(self.mailbox_capacity)
        if not box.push(Letter(source, destination, payload, posted_at=now)):
            self.stats.dropped_overflow += 1
            return
        due = now + self.latency
        batch = self._open_batches.get(due)
        if batch is None:
            batch = [lambda: self._open_batches.pop(due, None)]
            self._open_batches[due] = batch
            self.simulator.schedule_batch(due - now, batch)
        batch.append(lambda: self._deliver(box))

    def _deliver(self, box: Mailbox) -> None:
        letter = box.pop()
        self.stats.delivered += 1
        if self._on_delivery is not None:
            self._on_delivery(letter)
