"""Discrete-event simulation substrate.

The paper's results are expressed in synchronous *cycles* (each site
executes its protocol once per cycle).  We provide a general
discrete-event engine (:mod:`repro.sim.engine`) plus the pieces the
protocols need on top of it: deterministic per-site random streams,
per-cycle connection accounting with rejection and hunting, an
unreliable queued mail service, and metric collectors for residue,
traffic and convergence delay.
"""

from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.metrics import EpidemicMetrics, LinkTraffic, TrafficCounter
from repro.sim.transport import ConnectionLedger, ConnectionPolicy
from repro.sim.mailer import MailSystem, Mailbox, MailStats
from repro.sim.faults import FaultSchedule, RandomChurn

__all__ = [
    "Simulator",
    "RngRegistry",
    "derive_seed",
    "EpidemicMetrics",
    "LinkTraffic",
    "TrafficCounter",
    "ConnectionLedger",
    "ConnectionPolicy",
    "MailSystem",
    "Mailbox",
    "MailStats",
    "FaultSchedule",
    "RandomChurn",
]
