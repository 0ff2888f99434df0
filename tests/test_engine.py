"""The discrete-event engine: ordering, run control, determinism."""

import pytest

from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, lambda: log.append("c"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        log = []
        for name in "abcde":
            sim.schedule(1.0, lambda n=name: log.append(n))
        sim.run()
        assert log == list("abcde")

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(ValueError):
            sim.schedule_at(5.0, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule(2.0, lambda: log.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [("first", 1.0), ("second", 3.0)]


class TestRunControl:
    def test_run_until_stops_at_horizon(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(5.0, lambda: log.append(5))
        executed = sim.run(until=3.0)
        assert executed == 1
        assert log == [1]
        assert sim.now == 3.0           # time advances to the horizon
        assert sim.pending == 1

    def test_run_until_resumes(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, lambda: log.append(5))
        sim.run(until=3.0)
        sim.run(until=10.0)
        assert log == [5]
