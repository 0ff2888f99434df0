"""Structured tracing of epidemics: the per-cycle S/I/R census.

The analysis of Section 1.4 is phrased in the susceptible / infective /
removed fractions ``s, i, r``.  :class:`EpidemicTracer` samples those
fractions every cycle for one tracked key, so a stochastic run can be
laid directly against the deterministic ODE trajectory from
:mod:`repro.analysis.epidemic_theory`.

"Knows the key" is read off the cluster's ``delivery-span`` event stream
(:mod:`repro.obs.spans`) rather than kept in private observer
bookkeeping: the span stream *is* the first-delivery record.  For who
learned what, when and from whom, index that same stream with
:class:`repro.obs.lineage.LineageIndex`.  Attach the tracer
(``cluster.add_protocol``) before the updates it observes are injected.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, List, Optional, Set

from repro.obs.events import Event, EventBus, EventKind
from repro.protocols.base import Protocol
from repro.protocols.rumor import RumorMongeringProtocol


@dataclasses.dataclass(frozen=True, slots=True)
class Census:
    """One cycle's S/I/R counts for the traced key."""

    cycle: int
    susceptible: int
    infective: int
    removed: int

    @property
    def n(self) -> int:
        return self.susceptible + self.infective + self.removed

    @property
    def s(self) -> float:
        return self.susceptible / self.n

    @property
    def i(self) -> float:
        return self.infective / self.n

    @property
    def r(self) -> float:
        return self.removed / self.n


class EpidemicTracer(Protocol):
    """Samples the S/I/R census each cycle for one key.

    Requires the rumor protocol whose hot list defines "infective";
    sites knowing the value but not hot are "removed".  "Knows" is
    sourced from the first-delivery span stream, so attach the tracer
    (``add_protocol``) *before* the key is injected, and after the
    protocols it observes so each sample reflects the end of the cycle.

    With ``bus`` (an :class:`repro.obs.events.EventBus`, defaulting to
    the cluster's own), every sample is also emitted as a ``census``
    event, so a JSONL trace of a simulation carries the full S/I/R
    trajectory alongside the per-site news events.
    """

    name = "epidemic-tracer"

    def __init__(
        self,
        rumor: RumorMongeringProtocol,
        key: Hashable,
        bus: Optional[EventBus] = None,
    ):
        super().__init__()
        self.rumor = rumor
        self.key = key
        self.bus = bus
        self.history: List[Census] = []
        self._key_str = str(key)
        self._known: Set[int] = set()

    def attach(self, cluster) -> None:
        super().attach(cluster)
        cluster.bus.add_sink(self._on_event)

    def _on_event(self, event: Event) -> None:
        if event.kind is not EventKind.DELIVERY_SPAN:
            return
        payload = event.payload
        if payload.get("first") and payload.get("key") == self._key_str:
            self._known.add(event.node)

    def on_site_added(self, site_id: int) -> None:
        # A (re)joining site starts with an empty store; any stale
        # knowledge recorded under its id belongs to a previous life.
        self._known.discard(site_id)

    def on_site_removed(self, site_id: int) -> None:
        self._known.discard(site_id)

    def run_cycle(self, cycle: int) -> None:
        census = self.sample(cycle)
        self.history.append(census)
        bus = self.bus if self.bus is not None else self.cluster.bus
        bus.emit(
            EventKind.CENSUS,
            key=str(self.key),
            cycle=census.cycle,
            susceptible=census.susceptible,
            infective=census.infective,
            removed=census.removed,
        )

    def sample(self, cycle: Optional[int] = None) -> Census:
        cluster = self.cluster
        known = self._known
        susceptible = infective = removed = 0
        for site_id in cluster.site_ids:
            if site_id not in known:
                susceptible += 1
            elif self.rumor.is_infective(site_id, self.key):
                infective += 1
            else:
                removed += 1
        return Census(
            cycle=cluster.cycle if cycle is None else cycle,
            susceptible=susceptible,
            infective=infective,
            removed=removed,
        )

    def peak_infective(self) -> Census:
        if not self.history:
            raise ValueError("no samples recorded yet")
        return max(self.history, key=lambda c: c.infective)

    def final(self) -> Census:
        if not self.history:
            raise ValueError("no samples recorded yet")
        return self.history[-1]

    def curve(self) -> List[tuple]:
        """(cycle, s, i, r) tuples — plot-ready."""
        return [(c.cycle, c.s, c.i, c.r) for c in self.history]
