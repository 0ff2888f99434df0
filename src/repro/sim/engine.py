"""A minimal deterministic discrete-event simulator.

Events are ``(time, sequence, callback)`` triples on a binary heap; the
sequence number breaks ties so that events scheduled for the same instant
fire in scheduling order, which keeps runs bit-for-bit reproducible for a
fixed seed.  The cluster runs the heap up to each cycle boundary; the
mail system is what schedules, one event per delivery instant.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional


class Simulator:
    """Deterministic event loop."""

    def __init__(self, start_time: float = 0.0):
        self._now = start_time
        self._sequence = itertools.count()
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._processed = 0
        #: Optional :class:`repro.obs.profiling.Profiler`; when set,
        #: callback execution is timed under the ``engine`` phase.
        #: None (not a null profiler) so the hot loop pays one
        #: attribute load, not a context-manager round trip.
        self.profiler = None

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    def stats(self) -> dict:
        """Introspection snapshot (attached to ``cycle-completed``
        observability events, see :mod:`repro.obs.events`)."""
        return {
            "now": self._now,
            "pending": self.pending,
            "processed": self._processed,
        }

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        heapq.heappush(self._heap, (time, next(self._sequence), callback))

    def schedule_batch(self, delay: float, callbacks: list) -> None:
        """Schedule a whole batch of callbacks as ONE heap entry.

        ``callbacks`` is held by reference and iterated only when the
        event fires, so the caller may keep appending to it until then;
        appends made *while* the batch is firing are picked up in the
        same firing.  The mail system uses this to coalesce every
        letter sharing a delivery instant into a single event instead
        of one heap push per letter.
        """

        def fire() -> None:
            for callback in callbacks:
                callback()

        self.schedule(delay, fire)

    def advance_to(self, time: float) -> None:
        """Move the clock forward without running anything.

        Only valid when nothing is pending before ``time``; the cluster
        uses it to skip the event loop entirely on cycles with an empty
        heap.
        """
        if time < self._now:
            raise ValueError(f"cannot move time backwards (to {time})")
        self._now = time

    def run(self, until: Optional[float] = None) -> int:
        """Run events until the queue drains or ``until`` passes.
        Returns the number executed.
        """
        executed = 0
        profiler = self.profiler
        while self._heap:
            time, __, callback = self._heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(self._heap)
            self._now = time
            self._processed += 1
            if profiler is not None:
                with profiler.phase("engine"):
                    callback()
            else:
                callback()
            executed += 1
        if until is not None and self._now < until:
            self._now = until
        return executed
