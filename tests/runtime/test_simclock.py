"""Unit tests for the discrete-event queue."""

import pytest

from repro.errors import RuntimeEngineError
from repro.runtime.simclock import EventQueue


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        fired = []
        q.schedule_call(2.0, fired.append, "b")
        q.schedule_call(1.0, fired.append, "a")
        q.schedule_call(3.0, fired.append, "c")
        q.run()
        assert fired == ["a", "b", "c"]
        assert q.now == 3.0

    def test_tie_break_by_insertion(self):
        q = EventQueue()
        fired = []
        for label in "abc":
            q.schedule_call(1.0, fired.append, label)
        q.run()
        assert fired == ["a", "b", "c"]

    def test_schedule_in_relative(self):
        q = EventQueue()
        times = []
        q.schedule_call(
            5.0, lambda _: q.schedule_call_in(2.0, lambda _: times.append(q.now), None),
            None,
        )
        q.run()
        assert times == [7.0]

    def test_events_can_spawn_events(self):
        q = EventQueue()
        count = [0]

        def tick(_):
            count[0] += 1
            if count[0] < 10:
                q.schedule_call_in(1.0, tick, None)

        q.schedule_call(0.0, tick, None)
        q.run()
        assert count[0] == 10 and q.now == 9.0

    def test_past_scheduling_rejected(self):
        q = EventQueue()
        q.schedule_call(5.0, lambda _: None, None)
        q.step()
        with pytest.raises(RuntimeEngineError, match="before current time"):
            q.schedule_call(1.0, lambda _: None, None)

    def test_negative_delay_rejected(self):
        with pytest.raises(RuntimeEngineError, match="negative delay"):
            EventQueue().schedule_call_in(-1.0, lambda _: None, None)

    def test_run_until(self):
        q = EventQueue()
        fired = []
        for t in (1.0, 2.0, 3.0):
            q.schedule_call(t, fired.append, t)
        q.run(until=2.0)
        assert fired == [1.0, 2.0]
        assert len(q) == 1

    def test_event_budget(self):
        q = EventQueue()

        def forever(_):
            q.schedule_call_in(0.1, forever, None)

        q.schedule_call(0.0, forever, None)
        with pytest.raises(RuntimeEngineError, match="event budget"):
            q.run(max_events=100)

    def test_step_and_empty(self):
        q = EventQueue()
        assert q.empty and not q.step()
        q.schedule_call(1.0, lambda _: None, None)
        assert not q.empty
        assert q.step() is True
        assert q.empty

    def test_reset(self):
        q = EventQueue()
        q.schedule_call(1.0, lambda _: None, None)
        q.run()
        q.reset()
        assert q.now == 0.0 and q.empty


class TestTypedCallLane:
    """The argument rides in the heap entry (a plain 4-tuple), so no
    lambda is allocated per event."""

    def test_schedule_call_passes_argument(self):
        q = EventQueue()
        seen = []
        q.schedule_call(1.0, seen.append, "payload")
        q.run()
        assert seen == ["payload"]
        assert q.now == 1.0

    def test_schedule_call_in_is_relative(self):
        q = EventQueue()
        times = []
        q.schedule_call(1.0, lambda _: times.append(q.now), None)
        q.schedule_call_in(0.25, lambda _: times.append(q.now), None)
        q.run()
        assert times == [0.25, 1.0]

    def test_past_deadline_rejected(self):
        q = EventQueue()
        q.schedule_call(1.0, lambda _: None, None)
        q.run()
        with pytest.raises(RuntimeEngineError, match="before current time"):
            q.schedule_call(0.5, lambda _: None, None)
