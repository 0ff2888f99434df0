"""Phase timers: where does one gossip round actually spend its time?

Both runtimes decompose a round into the same phases — choosing a
partner, running the conversation, merging what arrived, emitting
observability events — so one :class:`Profiler` instruments both.  A
phase is timed with a context manager::

    with profiler.phase("merge"):
        reply = session.respond(offered)

Timings accumulate in two counters on the existing
:class:`~repro.obs.metrics.MetricsRegistry`:

* ``repro_phase_seconds_total{phase=...}`` — wall seconds per phase;
* ``repro_phase_calls_total{phase=...}`` — timed sections per phase;

so they ride along in every metrics snapshot (live ``STATUS`` replies,
``--metrics-json`` dumps) with no extra plumbing.

The simulator's hot loop runs millions of conversations, so its hooks are
pay-for-what-you-use: :data:`NULL_PROFILER` is installed by default
and ``Cluster.enable_profiling()`` swaps in a real profiler.  The
cluster's ``mail`` phase (the deliveries due at the top of a cycle) is
entered only on a cycle with something to deliver, and its ``emit``
phase only when the event bus has a consumer.  The
per-conversation ``partner-selection`` and ``exchange`` phases of
``GossipProtocol.pair_up`` are always entered: with profiling off that
is the null profiler's one shared do-nothing phase, a method call and
an empty ``with`` per phase, next to a conversation that costs
microseconds to milliseconds.  The live runtime always profiles — its
phase granularity is one network conversation, where a
``perf_counter`` pair is noise.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry

#: The canonical phase names both runtimes emit.
PHASES = ("partner-selection", "exchange", "merge", "emit", "mail")


class _Phase:
    """One timed section; records into the profiler on exit."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "Profiler", name: str):
        self._profiler = profiler
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Phase":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._profiler.record(self._name, time.perf_counter() - self._start)


class _NullPhase:
    """A do-nothing context manager, shared by :data:`NULL_PROFILER`."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_PHASE = _NullPhase()


class Profiler:
    """Accumulates per-phase wall time into a metrics registry."""

    enabled = True

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._seconds = self.registry.counter(
            "repro_phase_seconds_total",
            "Wall-clock seconds spent per profiled phase.",
            labels=("phase",),
        )
        self._calls = self.registry.counter(
            "repro_phase_calls_total",
            "Timed sections entered per profiled phase.",
            labels=("phase",),
        )

    def phase(self, name: str) -> _Phase:
        return _Phase(self, name)

    def record(self, name: str, seconds: float) -> None:
        self._seconds.inc(seconds, phase=name)
        self._calls.inc(1, phase=name)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """phase -> {seconds, calls}, for quick inspection in tests."""
        seconds = {
            labels.get("phase", ""): cell.value
            for labels, cell in self._seconds.labeled_series()
        }
        calls = {
            labels.get("phase", ""): cell.value
            for labels, cell in self._calls.labeled_series()
        }
        return {
            phase: {"seconds": seconds.get(phase, 0.0), "calls": calls.get(phase, 0.0)}
            for phase in set(seconds) | set(calls)
        }


class _NullProfiler(Profiler):
    """Timing disabled: ``phase`` hands out a shared no-op manager."""

    enabled = False

    def __init__(self):
        super().__init__(MetricsRegistry())

    def phase(self, name: str) -> _NullPhase:  # type: ignore[override]
        return _NULL_PHASE

    def record(self, name: str, seconds: float) -> None:
        return None


#: Shared disabled profiler — the default everywhere perf matters.
NULL_PROFILER = _NullProfiler()
