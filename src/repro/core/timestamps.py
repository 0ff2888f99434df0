"""Globally unique, totally ordered timestamps (Section 1.1).

The paper requires an operation ``Now[]`` returning a *globally unique*
timestamp drawn from a totally ordered set ``T``; a pair with a larger
timestamp always supersedes one with a smaller timestamp.  The paper notes
that the timestamps should approximate real time for the algorithms to be
*practically* (not just formally) correct.

We realize ``T`` as the lexicographically ordered triple

    (time, site, sequence)

where ``time`` is the issuing clock's notion of current time (simulated
cycles or wall-clock seconds), ``site`` is the issuing site's identifier,
and ``sequence`` disambiguates multiple timestamps issued by one site at
one instant.  Uniqueness holds as long as site identifiers are unique,
which the cluster layer guarantees.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterator


@dataclasses.dataclass(frozen=True, order=True, slots=True, init=False)
class Timestamp:
    """A point in the totally ordered timestamp set ``T``.

    Ordering is lexicographic on ``(time, site, sequence)``.  Instances
    are immutable and hashable so they can key dictionaries and appear
    in checksummed canonical encodings.
    """

    time: float
    site: int = 0
    sequence: int = 0

    def __init__(self, time: float, site: int = 0, sequence: int = 0) -> None:
        # The generated frozen __init__ goes through object.__setattr__
        # once per field; the slots' own descriptors cost half as much.
        _set_time(self, time)
        _set_site(self, site)
        _set_sequence(self, sequence)

    def advanced_to(self, time: float) -> "Timestamp":
        """Return a copy of this timestamp moved to ``time``.

        Used by death-certificate *activation*: the activation timestamp
        is set forward while the ordinary timestamp stays put.
        """
        return Timestamp(time, self.site, self.sequence)

    def age(self, now: float) -> float:
        """Age of this timestamp relative to a local clock reading."""
        return now - self.time

    def encode(self) -> bytes:
        """Canonical byte encoding used for checksumming: the ``repr``
        of the ``(time, site, sequence)`` tuple."""
        return ("(%r, %r, %r)" % (self.time, self.site, self.sequence)).encode("utf-8")

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"T({self.time:g}@{self.site}#{self.sequence})"


_set_time = Timestamp.__dict__["time"].__set__
_set_site = Timestamp.__dict__["site"].__set__
_set_sequence = Timestamp.__dict__["sequence"].__set__

Timestamp.MIN = Timestamp(float("-inf"), -1, -1)


class Clock:
    """Interface for timestamp issuers.

    A clock belongs to a single site.  ``now()`` returns the current
    local time; ``next_timestamp()`` returns a fresh globally unique
    :class:`Timestamp` that is strictly greater than any timestamp this
    clock has issued before.
    """

    def now(self) -> float:
        raise NotImplementedError

    def next_timestamp(self) -> Timestamp:
        raise NotImplementedError


class SequenceClock(Clock):
    """A deterministic clock whose time is a per-site counter.

    Useful in unit tests where simulated real time is irrelevant: each
    call to :meth:`next_timestamp` advances time by one.
    """

    def __init__(self, site: int = 0, start: float = 0.0):
        self._site = site
        self._time = start
        self._seq = itertools.count()

    def now(self) -> float:
        return self._time

    def next_timestamp(self) -> Timestamp:
        self._time += 1.0
        return Timestamp(self._time, self._site, next(self._seq))


class SimClock(Clock):
    """A clock bound to a simulation's global time source.

    ``time_source`` is any zero-argument callable returning the current
    simulated time (typically ``simulator.now``).  Multiple timestamps
    issued at the same simulated instant are disambiguated by the
    per-site sequence counter, preserving global uniqueness and the
    total order.

    A fixed ``skew`` can be configured to model imperfect clock
    synchronization (Section 2 assumes skew ``epsilon << tau1``; the
    death-certificate tests exercise that assumption).
    """

    def __init__(self, site: int, time_source, skew: float = 0.0):
        self._site = site
        self._time_source = time_source
        self._skew = skew
        self._seq = itertools.count()
        self._last_time = float("-inf")

    @property
    def site(self) -> int:
        return self._site

    @property
    def skew(self) -> float:
        return self._skew

    def now(self) -> float:
        return self._time_source() + self._skew

    def next_timestamp(self) -> Timestamp:
        time = self.now()
        # Guard against a time source that moves backwards; timestamps
        # issued by one clock must be monotonically increasing.
        if time < self._last_time:
            time = self._last_time
        self._last_time = time
        return Timestamp(time, self._site, next(self._seq))


def merge_max(*stamps: Timestamp) -> Timestamp:
    """Return the largest of the given timestamps (last-writer-wins)."""
    if not stamps:
        raise ValueError("merge_max requires at least one timestamp")
    return max(stamps)


def is_strictly_increasing(stamps: Iterator[Timestamp]) -> bool:
    """True when the iterator yields a strictly increasing sequence."""
    previous = None
    for stamp in stamps:
        if previous is not None and not previous < stamp:
            return False
        previous = stamp
    return True
