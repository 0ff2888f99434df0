"""Simulation substrate.

The paper's results are expressed in synchronous *cycles* (each site
executes its protocol once per cycle), and the simulator's clock is the
cycle: :class:`repro.cluster.Cluster` runs them.  This package holds
the pieces the protocols need on top of that: deterministic per-site
random streams, per-cycle connection accounting with rejection and
hunting, fault schedules, and metric collectors for residue, traffic
and convergence delay.  The unreliable queued mail service of
Section 1.2 is :mod:`repro.protocols.direct_mail`.
"""

from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.metrics import EpidemicMetrics, LinkTraffic, TrafficCounter
from repro.sim.transport import ConnectionLedger, ConnectionPolicy
from repro.sim.faults import FaultSchedule, RandomChurn

__all__ = [
    "RngRegistry",
    "derive_seed",
    "EpidemicMetrics",
    "LinkTraffic",
    "TrafficCounter",
    "ConnectionLedger",
    "ConnectionPolicy",
    "FaultSchedule",
    "RandomChurn",
]
