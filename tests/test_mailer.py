"""The unreliable queued mail service of direct mail (Section 1.2)."""

import pytest

from repro.cluster.cluster import Cluster
from repro.obs.events import EventKind, RingBufferSink
from repro.protocols.base import Protocol
from repro.protocols.direct_mail import DirectMailProtocol


class Recorder(Protocol):
    """Logs the news each site hears and each of its own cycle steps."""

    def __init__(self):
        super().__init__()
        self.log = []

    def on_news(self, site_id, update, result):
        self.log.append(("news", self.cluster.cycle, site_id, update.key))

    def run_cycle(self, cycle):
        self.log.append(("run", cycle))


def make_mail(n=2, loss=0.0, capacity=None, seed=0, remail=False):
    """A cluster with direct mail behind a :class:`Recorder`."""
    cluster = Cluster(n=n, seed=seed)
    recorder = Recorder()
    cluster.add_protocol(recorder)
    mail = DirectMailProtocol(
        loss_probability=loss, mailbox_capacity=capacity, remail_on_news=remail
    )
    cluster.add_protocol(mail)
    return cluster, mail, recorder


def news(recorder):
    return [entry[1:] for entry in recorder.log if entry[0] == "news"]


class TestDelivery:
    def test_letter_arrives_after_latency(self):
        """A letter posted in cycle c arrives at the top of cycle c + 1."""
        cluster, mail, recorder = make_mail()
        cluster.inject_update(0, "k", "hello")
        assert cluster.sites[1].store.get("k") is None
        cluster.run_cycle()
        assert news(recorder) == [(1, 1, "k")]
        assert cluster.sites[1].store.get("k") == "hello"

    def test_letters_to_one_site_arrive_in_posting_order(self):
        cluster, mail, recorder = make_mail(n=3)
        cluster.inject_update(0, "b", 1)
        cluster.inject_update(2, "a", 2)
        cluster.run_cycle()
        assert [key for __, site, key in news(recorder) if site == 1] == ["b", "a"]

    def test_delivery_callback(self):
        """A delivered letter is news at its destination, sent by its source."""
        cluster, mail, __ = make_mail()
        sink = cluster.bus.add_sink(RingBufferSink())
        cluster.inject_update(0, "x", "v")
        cluster.run_cycle()
        [span] = [s for s in sink.of_kind(EventKind.DELIVERY_SPAN) if s.node == 1]
        assert (span.payload["src"], span.payload["key"]) == (0, "x")

    def test_stats_track_posted_and_delivered(self):
        cluster, mail, __ = make_mail(n=6)
        cluster.inject_update(0, "k", "v")
        cluster.run_cycle()
        assert mail.stats.posted == 5
        assert mail.stats.delivered == 5
        assert mail.stats.delivery_ratio == 1.0


class TestFailureModes:
    def test_loss_probability_drops_messages(self):
        cluster, mail, __ = make_mail(loss=0.5, seed=3)
        for i in range(200):
            cluster.inject_update(0, i, i)
        cluster.run_cycle()
        assert 0 < mail.stats.dropped_loss < 200
        assert mail.stats.delivered + mail.stats.dropped_loss == 200
        # Roughly half lost (binomial, wide tolerance).
        assert 60 <= mail.stats.dropped_loss <= 140

    def test_overflow_drops_when_mailbox_full(self):
        """The capacity bounds the letters in flight to one site: the
        posts past it are dropped at once, other sites are unaffected."""
        cluster, mail, recorder = make_mail(n=3, capacity=3)
        for i in range(3):
            cluster.inject_update(0, i, i)   # fills sites 1 and 2
        cluster.inject_update(1, "late", 0)  # site 0 has room, site 2 none
        assert mail.stats.dropped_overflow == 1
        cluster.run_cycle()
        assert mail.stats.delivered == 7
        assert [key for __, site, key in news(recorder) if site == 0] == ["late"]
        assert cluster.sites[2].store.get("late") is None

    def test_unbounded_by_default(self):
        cluster, mail, __ = make_mail()
        for i in range(50):
            cluster.inject_update(0, i, i)
        cluster.run_cycle()
        assert (mail.stats.delivered, mail.stats.dropped_overflow) == (50, 0)

    def test_overflow_is_checked_after_the_loss_draw(self):
        """Every post draws its loss first, so a capacity changes which
        letters overflow but never which are lost."""
        def dropped(capacity):
            cluster, mail, __ = make_mail(loss=0.5, capacity=capacity, seed=7)
            for i in range(20):
                cluster.inject_update(0, i, i)
            return mail.stats.dropped_loss, mail.stats.dropped_overflow

        lost, overflow = dropped(None)
        assert overflow == 0 and 0 < lost < 20
        assert dropped(1) == (lost, 20 - lost - 1)

    def test_draining_restores_capacity(self):
        """A delivery frees its letter's slot: a full queue takes mail
        again once it has been delivered."""
        cluster, mail, recorder = make_mail(capacity=1)
        for key in ("first", "second", "third"):
            cluster.inject_update(0, key, 0)
            cluster.run_cycle()
        assert [key for __, __, key in news(recorder)] == ["first", "second", "third"]
        assert mail.stats.dropped_overflow == 0

    def test_loss_probability_validated(self):
        with pytest.raises(ValueError):
            DirectMailProtocol(loss_probability=1.5)


class TestMailbox:
    def test_full_at_capacity(self):
        """A destination's mailbox at capacity refuses the next letter
        and takes mail again once its letter has been delivered."""
        cluster, mail, recorder = make_mail(capacity=1)
        cluster.inject_update(0, "a", 0)
        cluster.inject_update(0, "b", 0)
        assert (mail.stats.posted, mail.stats.dropped_overflow) == (2, 1)
        cluster.run_cycle()
        assert [key for __, __, key in news(recorder)] == ["a"]
        cluster.inject_update(0, "c", 0)
        assert mail.stats.dropped_overflow == 1
        cluster.run_cycle()
        assert [key for __, __, key in news(recorder)] == ["a", "c"]


class TestTiming:
    def test_news_before_the_cycle_step_and_remail_a_cycle_later(self):
        """A listener ahead of the mail hears cycle c's letters at the top
        of cycle c + 1, before its own step; a letter posted during that
        delivery (a second mail's remailing step) arrives at c + 2."""
        cluster, mail, recorder = make_mail(n=4)
        remailer = DirectMailProtocol(remail_on_news=True)
        cluster.add_protocol(remailer)
        sink = cluster.bus.add_sink(RingBufferSink())
        cluster.inject_update(0, "k", "v")
        cluster.run_cycle()
        assert recorder.log == [
            ("news", 1, 1, "k"), ("news", 1, 2, "k"), ("news", 1, 3, "k"), ("run", 1),
        ]
        assert remailer.active
        cluster.run_cycles(2)
        assert recorder.log[-2:] == [("run", 2), ("run", 3)]
        mailed = [e for e in sink.of_kind(EventKind.DELIVERY_SPAN) if e.payload["src"] is not None]
        # Both mailings of the write (2 x 3 letters), then 3 sites remail
        # the news the first one brought (3 x 3 letters).
        assert [e.time for e in mailed] == [1.0] * 6 + [2.0] * 9
        assert not remailer.active
