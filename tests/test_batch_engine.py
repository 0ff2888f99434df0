"""Golden bit-identity: the batched trial core vs the scalar reference.

The batched engine (:mod:`repro.sim.batch`) promises *bit-for-bit* the
same epidemics as the event-driven :class:`~repro.cluster.cluster.Cluster`
path — same per-site RNG streams, same draw order, same metrics.  These
tests hold that promise across the Table 1-3 configurations, the rumor
variants (push-pull, minimization, blind/coin, pull footnote semantics,
connection limits with hunting) and both anti-entropy directions, over
a seed sweep.
"""

import os
import subprocess
import sys

import pytest

from repro.experiments.tables import run_anti_entropy_trial, run_rumor_trial
from repro.protocols.base import ExchangeMode
from repro.protocols.rumor import RumorConfig
from repro.sim import batch
from repro.sim.rng import SiteSeeder, site_seed
from repro.sim.transport import ConnectionPolicy

N = 120
SEEDS = (1, 7)


def _fingerprint(metrics):
    """Every integer the two engines must agree on, bit for bit."""
    return {
        "receipts": dict(metrics.receipt_times),
        "update_sends": metrics.update_sends,
        "comparisons": metrics.comparisons,
        "cycles": metrics.cycles_run,
        "rejected": metrics.rejected_connections,
    }


CONFIGS = {
    # Table 1-3 shapes (one k each; the bench sweeps the full tables).
    "t1-push-fb-counter": RumorConfig(
        mode=ExchangeMode.PUSH, feedback=True, counter=True, k=2
    ),
    "t2-push-blind-coin": RumorConfig(
        mode=ExchangeMode.PUSH, feedback=False, counter=False, k=2
    ),
    "t3-pull-fb-counter": RumorConfig(
        mode=ExchangeMode.PULL, feedback=True, counter=True, k=2
    ),
    # Variant coverage.
    "pushpull": RumorConfig(
        mode=ExchangeMode.PUSH_PULL, feedback=True, counter=True, k=2
    ),
    "minimization": RumorConfig(
        mode=ExchangeMode.PUSH_PULL, feedback=True, counter=True, k=2,
        minimization=True,
    ),
    "blind-counter": RumorConfig(
        mode=ExchangeMode.PUSH, feedback=False, counter=True, k=3
    ),
    "feedback-coin": RumorConfig(
        mode=ExchangeMode.PUSH, feedback=True, counter=False, k=2
    ),
    "pull-noreset": RumorConfig(
        mode=ExchangeMode.PULL, feedback=True, counter=True, k=2,
        reset_on_success=False,
    ),
    "push-limited-hunt": RumorConfig(
        mode=ExchangeMode.PUSH, feedback=True, counter=True, k=2,
        policy=ConnectionPolicy(connection_limit=1, hunt_limit=2),
    ),
    "pull-limited": RumorConfig(
        mode=ExchangeMode.PULL, feedback=True, counter=True, k=2,
        policy=ConnectionPolicy(connection_limit=1, hunt_limit=1),
    ),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_rumor_golden(name, seed):
    config = CONFIGS[name]
    reference = run_rumor_trial(N, config, seed, engine="reference")
    batched = run_rumor_trial(N, config, seed, engine="batched")
    assert _fingerprint(batched) == _fingerprint(reference)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "mode", (ExchangeMode.PUSH, ExchangeMode.PULL, ExchangeMode.PUSH_PULL)
)
def test_anti_entropy_golden(mode, seed):
    reference = run_anti_entropy_trial(N, mode, seed=seed, engine="reference")
    batched = run_anti_entropy_trial(N, mode, seed=seed, engine="batched")
    assert _fingerprint(batched) == _fingerprint(reference)


def test_anti_entropy_period_offset_golden():
    reference = run_anti_entropy_trial(
        N, ExchangeMode.PUSH_PULL, seed=5, engine="reference"
    )
    batched = batch.anti_entropy_trial(N, ExchangeMode.PUSH_PULL, 5)
    assert _fingerprint(batched) == _fingerprint(reference)


def test_word_cache_replay_matches_fresh():
    """Cold (cleared cache) and warm (word replay) runs of one seed both
    equal the scalar engine, which never touches the cache."""
    config = CONFIGS["t1-push-fb-counter"]
    reference = _fingerprint(run_rumor_trial(N, config, 11, engine="reference"))
    batch.clear_word_cache()
    cold = _fingerprint(batch.rumor_trial(N, config, 11))   # fills the cache
    assert 11 in batch._WORD_CACHE
    warm = _fingerprint(batch.rumor_trial(N, config, 11))   # replays it
    assert cold == reference
    assert warm == reference


def test_hot_paths_load_no_optional_library():
    """A batched rumor trial, a batched anti-entropy trial and a v4
    frame round trip import neither numpy nor msgpack, installed or not:
    what the simulator and the codec compute cannot depend on the host."""
    program = (
        "import sys\n"
        "from repro.net.wire import Message, MessageType, decode_body, encode_message\n"
        "from repro.protocols.base import ExchangeMode\n"
        "from repro.protocols.rumor import RumorConfig\n"
        "from repro.sim import batch\n"
        "batch.rumor_trial(60, RumorConfig(mode=ExchangeMode.PUSH_PULL), 1)\n"
        "batch.anti_entropy_trial(60, ExchangeMode.PUSH_PULL, 1)\n"
        "sent = Message(MessageType.MAIL, 0, {'key': 'k', 'value': 2**100}, version=4)\n"
        "assert decode_body(encode_message(sent)[4:]).payload == sent.payload\n"
        "print(sorted({'numpy', 'msgpack'} & set(sys.modules)))\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    result = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.strip() == "[]"


def test_site_seeder_matches_site_seed():
    seeder = SiteSeeder(99)
    assert [seeder.seed(i) for i in range(64)] == [
        site_seed(99, i) for i in range(64)
    ]


def test_engine_argument_validation():
    with pytest.raises(ValueError, match="unknown engine"):
        run_rumor_trial(N, CONFIGS["pushpull"], 1, engine="warp")
    with pytest.raises(ValueError, match="unknown engine"):
        run_anti_entropy_trial(N, ExchangeMode.PUSH, engine="warp")


def test_batched_raises_when_not_converged():
    config = CONFIGS["t1-push-fb-counter"]
    with pytest.raises(RuntimeError, match="predicate not reached"):
        batch.rumor_trial(N, config, 1, max_cycles=1)
