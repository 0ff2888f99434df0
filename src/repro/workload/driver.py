"""Drive generated client traffic into a simulated cluster.

:class:`WorkloadDriver` binds a generator
(:mod:`repro.workload.generators`) to a
:class:`~repro.cluster.cluster.Cluster` and plays the operations, cycle
by cycle:

* **writes** become :meth:`Cluster.inject_update` calls (and the
  driver's *oracle* records the globally latest timestamp per key);
* **deletes** become :meth:`Cluster.inject_delete` calls — death
  certificates that must propagate exactly like writes;
* **reads** touch nothing: a read of ``key`` at site ``s`` samples the
  **staleness** ``latest_global_ts(key) − local_ts(key)`` (in cycles) —
  zero when ``s`` already holds the newest version, positive while an
  update is still propagating.  A site holding *no* version of a key
  some other site has written counts as a ``read_miss`` instead (there
  is no local timestamp to subtract).

The Section 1.3 tau study (:mod:`repro.experiments.workloads`) runs on
the driver's ``inject_one_cycle`` / ``run`` / ``operations`` /
``deletes`` surface.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.core.timestamps import Timestamp
from repro.obs.events import EventKind
from repro.sim.rng import derive_seed
from repro.workload.generators import (
    ClientPool,
    ClosedLoopGenerator,
    OpenLoopGenerator,
    Operation,
    OpKind,
    WorkloadConfig,
)
from repro.workload.stats import ReservoirSample

#: Residue estimation caps its key scan so a million-key oracle does
#: not turn every curve point into a full-database sweep; keys are
#: taken at a deterministic stride, not sampled, so runs stay
#: reproducible.
_RESIDUE_KEY_CAP = 64


class WorkloadDriver:
    """Injects a :class:`WorkloadConfig` into a cluster, cycle by cycle.

    With ``pool`` the traffic is closed-loop
    (:class:`~repro.workload.generators.ClosedLoopGenerator`);
    otherwise open-loop Poisson arrivals at ``config.rate``.
    """

    def __init__(
        self,
        cluster: Cluster,
        config: WorkloadConfig,
        seed: int = 0,
        pool: Optional[ClientPool] = None,
    ):
        self.cluster = cluster
        self.config = config
        self._rng = random.Random(derive_seed(seed, "workload"))
        if pool is not None:
            self.generator = ClosedLoopGenerator(config, pool, self._rng)
        else:
            self.generator = OpenLoopGenerator(config, self._rng)
        self._sequence = 0
        # The oracle: globally latest timestamp per key, maintained from
        # the injections themselves (the driver sees every write).
        self._latest: Dict[str, Timestamp] = {}
        self.operations = 0
        self.writes = 0
        self.reads = 0
        self.deletes = 0
        self.read_misses = 0
        self.staleness = ReservoirSample(
            rng=random.Random(derive_seed(seed, "workload", "staleness"))
        )
        self._window_staleness_sink = None

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------

    def inject_one_cycle(self) -> int:
        """Inject this cycle's client operations; returns how many."""
        up = self.cluster.up_site_ids()
        if not up:
            return 0
        ops = self.generator.ops_for_cycle(self.cluster.cycle, up)
        for op in ops:
            self._apply(op)
        return len(ops)

    def _apply(self, op: Operation) -> None:
        self.operations += 1
        if op.kind is OpKind.DELETE:
            update = self.cluster.inject_delete(op.site, op.key)
            self._note_latest(op.key, update.entry.timestamp)
            self.deletes += 1
        elif op.kind is OpKind.READ:
            self.reads += 1
            self._sample_read(op.site, op.key)
        else:
            self._sequence += 1
            update = self.cluster.inject_update(
                op.site, op.key, f"value-{self._sequence}"
            )
            self._note_latest(op.key, update.entry.timestamp)
            self.writes += 1

    def _note_latest(self, key: str, timestamp: Timestamp) -> None:
        current = self._latest.get(key)
        if current is None or timestamp > current:
            self._latest[key] = timestamp

    def _sample_read(self, site: int, key: str) -> None:
        latest = self._latest.get(key)
        if latest is None:
            return  # never written anywhere: staleness undefined
        entry = self.cluster.sites[site].store.entry(key)
        if entry is None:
            self.read_misses += 1
            return
        staleness = max(0.0, latest.time - entry.timestamp.time)
        self.staleness.add(staleness)
        if self._window_staleness_sink is not None:
            self._window_staleness_sink(staleness)
        bus = self.cluster.bus
        if bus.has_sinks:
            bus.emit(
                EventKind.READ_SAMPLED,
                node=site,
                key=key,
                staleness=staleness,
            )

    def on_staleness(self, sink) -> None:
        """Register a callback fired with every staleness sample (the
        steady-state harness feeds its per-window curves this way)."""
        self._window_staleness_sink = sink

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def residue(self) -> float:
        """The stale fraction of (up site, key) pairs right now.

        A pair is stale when the site lacks the oracle's latest version
        of the key (missing entirely, or older).  Scans at most
        ``_RESIDUE_KEY_CAP`` keys at a deterministic stride.
        """
        keys = sorted(self._latest)
        if not keys:
            return 0.0
        stride = max(1, len(keys) // _RESIDUE_KEY_CAP)
        sampled = keys[::stride]
        up = self.cluster.up_site_ids()
        if not up:
            return 0.0
        stale = 0
        for key in sampled:
            latest = self._latest[key]
            for site_id in up:
                entry = self.cluster.sites[site_id].store.entry(key)
                if entry is None or entry.timestamp < latest:
                    stale += 1
        return stale / (len(sampled) * len(up))

    def oracle_keys(self) -> List[str]:
        """Keys ever written, sorted (the oracle's domain)."""
        return sorted(self._latest)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(self, cycles: int) -> None:
        """Interleave injection with cluster cycles."""
        for __ in range(cycles):
            self.inject_one_cycle()
            self.cluster.run_cycle()
