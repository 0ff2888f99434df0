"""The parallel trial engine: fan independent Monte-Carlo trials out
over worker processes, deterministically.

Every table in the paper is an average over many independent trials
(250 per row of Tables 4-5).  Trials never share state — each builds
its own :class:`~repro.cluster.cluster.Cluster` from an explicit seed —
so they parallelize embarrassingly well.  The :class:`TrialRunner`
exploits that while keeping the repo's reproducibility contract:

* **Bit-for-bit determinism.**  A trial is a module-level function plus
  a kwargs dict containing its seed; the runner executes exactly the
  same calls whether serially or in a pool, and merges results back in
  submission order.  ``TrialRunner(jobs=1)`` and ``TrialRunner(jobs=8)``
  therefore produce *identical* results (a test asserts this), and the
  serial path is the plain ``for`` loop the experiments always ran.
* **Order-independent seeding.**  Per-trial seeds come from the same
  hash-based :func:`~repro.sim.rng.derive_seed` namespace the
  :class:`~repro.sim.rng.RngRegistry` uses, so trial ``i``'s stream
  never depends on how many trials run, in which order, or in which
  process (:func:`trial_seeds`).
* **Picklability.**  Trial functions must be importable module-level
  callables and their kwargs / results plain data (dataclasses, enums,
  topologies — no clusters, no lambdas).  All experiment drivers in
  :mod:`repro.experiments` satisfy this.

Used by every experiment driver (``tables``, ``spatial``, ``workloads``,
``baselines``, ``pathologies``, ``backup_scenarios``,
``deathcert_scenarios``) and exposed on the CLI as ``--jobs N``.

The trial those drivers share lives here too: :func:`single_update`
injects one tracked update into a fresh cluster (§1.4's residue,
traffic and delay all follow that one update), and
:func:`planted_sites` picks the sites an earlier, partial distribution
already reached.
"""

from __future__ import annotations

import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.core.store import StoreUpdate
from repro.sim.rng import RngRegistry, derive_seed
from repro.topology.graph import Topology


def default_jobs() -> int:
    """The default worker count: one per CPU."""
    return os.cpu_count() or 1


def trial_seeds(master_seed: int, *path: Hashable, count: int) -> List[int]:
    """``count`` per-trial master seeds under a label namespace.

    Derived through the :class:`RngRegistry` fork namespace, so the
    seed of trial ``i`` depends only on ``(master_seed, path, i)`` —
    never on execution order — and adding trials never perturbs
    existing ones.
    """
    registry = RngRegistry(master_seed)
    return [registry.fork(*path, index).master_seed for index in range(count)]


def _invoke(task) -> Any:
    """Top-level trampoline so (fn, kwargs) pairs cross the pool boundary."""
    fn, kwargs = task
    return fn(**kwargs)


class TrialRunner:
    """Runs a batch of independent trials, serially or in a process pool.

    ``jobs=1`` (or a single-element batch) short-circuits to a plain
    loop in this process — no pool, no pickling, the exact code path
    the experiments ran before parallelism existed.  ``jobs=None``
    means one worker per CPU.
    """

    def __init__(self, jobs: Optional[int] = None):
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs if jobs is not None else default_jobs()

    def map(
        self,
        fn: Callable[..., Any],
        kwargs_list: Sequence[Dict[str, Any]],
    ) -> List[Any]:
        """Run ``fn(**kwargs)`` for every kwargs dict; results in input order.

        The deterministic merge point: whatever the completion order in
        the pool, result ``i`` is always the return value of call ``i``.
        """
        tasks = list(kwargs_list)
        if self.jobs <= 1 or len(tasks) <= 1:
            return [fn(**kwargs) for kwargs in tasks]
        workers = min(self.jobs, len(tasks))
        # A few chunks per worker amortizes pickling without letting one
        # slow chunk serialize the tail of the batch.
        chunksize = max(1, math.ceil(len(tasks) / (workers * 4)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(
                pool.map(_invoke, [(fn, kwargs) for kwargs in tasks], chunksize=chunksize)
            )

    def describe(self) -> str:
        return "serial" if self.jobs <= 1 else f"parallel(jobs={self.jobs})"


#: The serial runner experiments default to when no runner is passed:
#: keeps library calls (and the test suite) single-process unless a
#: caller opts into parallelism.
SERIAL = TrialRunner(jobs=1)


def resolve_runner(runner: Optional[TrialRunner]) -> TrialRunner:
    """``None`` -> the serial runner (library default)."""
    return runner if runner is not None else SERIAL


def single_update(
    protocol,
    seed: int,
    start: int = 0,
    n: Optional[int] = None,
    topology: Optional[Topology] = None,
) -> Tuple[Cluster, StoreUpdate]:
    """A cluster of ``n`` sites (or ``topology``'s) running ``protocol``,
    with one update injected at site ``start`` and tracked by
    ``cluster.metrics``.  Returns the cluster and that update."""
    cluster = Cluster(topology=topology, n=n, seed=seed)
    cluster.add_protocol(protocol)
    return cluster, cluster.inject_update(start, "the-key", "the-value", track=True)


def planted_sites(cluster: Cluster, seed: int, coverage: float) -> List[int]:
    """The seeded sample of sites other than site 0 that, with site 0,
    make up a ``coverage`` fraction of the cluster."""
    others = [site_id for site_id in cluster.site_ids if site_id != 0]
    count = max(0, round(cluster.n * coverage) - 1)
    return random.Random(derive_seed(seed, "plant")).sample(others, count)


__all__ = [
    "TrialRunner",
    "SERIAL",
    "default_jobs",
    "derive_seed",
    "planted_sites",
    "resolve_runner",
    "single_update",
    "trial_seeds",
]
