"""The unreliable queued mail service (Section 1.2)."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.mailer import Letter, MailSystem, Mailbox
from repro.sim.rng import RngRegistry


def make_mail(loss=0.0, capacity=None, latency=1.0, seed=0):
    """A mail system and the list its deliveries land in."""
    sim = Simulator()
    mail = MailSystem(
        sim, RngRegistry(seed), loss_probability=loss,
        mailbox_capacity=capacity, latency=latency,
    )
    delivered = []
    mail.on_delivery(delivered.append)
    return sim, mail, delivered


class TestDelivery:
    def test_letter_arrives_after_latency(self):
        sim, mail, delivered = make_mail(latency=2.0)
        mail.post(0, 1, "hello")
        sim.run(until=1.0)
        assert delivered == []
        sim.run(until=2.0)
        assert len(delivered) == 1
        assert delivered[0].payload == "hello"
        assert delivered[0].source == 0
        assert delivered[0].destination == 1
        assert delivered[0].posted_at == 0.0

    def test_letters_to_one_site_arrive_in_posting_order(self):
        sim, mail, delivered = make_mail()
        mail.post(0, 1, "a")
        mail.post(2, 1, "b")
        sim.run()
        assert [l.payload for l in delivered] == ["a", "b"]

    def test_delivery_callback(self):
        sim, mail, __ = make_mail()
        seen = []
        mail.on_delivery(lambda letter: seen.append(letter.payload))
        mail.post(0, 1, "x")
        sim.run()
        assert seen == ["x"]

    def test_stats_track_posted_and_delivered(self):
        sim, mail, __ = make_mail()
        for i in range(5):
            mail.post(0, i, i)
        sim.run()
        assert mail.stats.posted == 5
        assert mail.stats.delivered == 5
        assert mail.stats.delivery_ratio == 1.0


class TestFailureModes:
    def test_loss_probability_drops_messages(self):
        sim, mail, __ = make_mail(loss=0.5, seed=3)
        for i in range(200):
            mail.post(0, 1, i)
        sim.run()
        assert 0 < mail.stats.dropped_loss < 200
        assert mail.stats.delivered + mail.stats.dropped_loss == 200
        # Roughly half lost (binomial, wide tolerance).
        assert 60 <= mail.stats.dropped_loss <= 140

    def test_overflow_drops_when_mailbox_full(self):
        """The capacity bounds the letters in flight to one site: the
        posts past it are dropped at once, other sites are unaffected."""
        sim, mail, delivered = make_mail(capacity=3)
        for i in range(5):
            mail.post(0, 1, i)
        mail.post(0, 2, "elsewhere")
        assert mail.stats.dropped_overflow == 2
        sim.run()
        assert [l.payload for l in delivered] == [0, 1, 2, "elsewhere"]
        assert mail.stats.delivered == 4

    def test_draining_restores_capacity(self):
        """A delivery frees its letter's slot: a full queue takes mail
        again once it has been delivered."""
        sim, mail, delivered = make_mail(capacity=1)
        for payload in ("first", "second", "third"):
            mail.post(0, 1, payload)
            sim.run()
        assert [l.payload for l in delivered] == ["first", "second", "third"]
        assert mail.stats.dropped_overflow == 0

    def test_loss_probability_validated(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            MailSystem(sim, RngRegistry(0), loss_probability=1.5)

    def test_negative_latency_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            MailSystem(sim, RngRegistry(0), latency=-1.0)


class TestMailbox:
    def test_unbounded_by_default(self):
        box = Mailbox()
        assert not box.full

    def test_full_at_capacity(self):
        box = Mailbox(capacity=1)
        assert box.push(Letter(0, 1, "a", 0.0))
        assert box.full
        assert not box.push(Letter(0, 1, "b", 0.0))
        assert box.pop().payload == "a"
        assert not box.full
