"""What one run of one workload measured."""

from __future__ import annotations

import dataclasses
import gc
import random
from typing import Any, Dict, List

from perfbench.stats import median

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def rng_for(seed: int, *parts: object) -> random.Random:
    """A named random stream of one benchmark seed (string seeding is
    stable across processes, unlike ``hash``)."""
    return random.Random(":".join(str(part) for part in (seed, *parts)))


def settle_heap() -> None:
    """Collect, then freeze what survived, before a timed region.

    The set-up leaves a large long-lived heap (up to 400000 entries);
    left in the collected generations, a full collection triggered by
    the timed work traverses all of it and lands on whichever sample
    happened to trigger it.  Freezing keeps the collector on for what
    the timed work allocates and takes the set-up's heap out of its way.
    """
    gc.collect()
    gc.freeze()


@dataclasses.dataclass
class Result:
    workload: str
    setup_s: List[float] = dataclasses.field(default_factory=list)
    light_ms: List[float] = dataclasses.field(default_factory=list)
    heavy_ms: List[float] = dataclasses.field(default_factory=list)
    work_items: float = 0.0        # headline items completed ...
    work_s: float = 0.0            # ... in this many timed seconds
    traffic: float = 0.0           # entries/frames moved over the fixed prefix ...
    traffic_items: float = 0.0     # ... per this many items
    attempted: int = 0
    failed: int = 0
    failures: List[str] = dataclasses.field(default_factory=list)
    #: per-layer metrics read off this workload (traced runs use them)
    layer: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: measured counts the explained_share model multiplies layer costs by
    counts: Dict[str, float] = dataclasses.field(default_factory=dict)
    info: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def check(self, ok: bool, message: str) -> bool:
        """Count one checked operation; record the failure if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(message)
        return ok

    def end_to_end(self) -> Dict[str, float]:
        return {
            "setup_s": median(self.setup_s),
            "work_per_s": self.work_items / self.work_s,
            "light_ms_p50": median(self.light_ms),
            "heavy_ms_p50": median(self.heavy_ms),
            "traffic_per_item": self.traffic / self.traffic_items,
        }
