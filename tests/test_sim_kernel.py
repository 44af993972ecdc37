"""Unit tests for the discrete-event kernel: events, clock, processes."""

import pytest

from repro.sim import (
    Environment,
    Event,
    ProcessCrash,
    SimulationError,
)


@pytest.fixture
def env():
    return Environment()


class TestEnvironment:
    def test_clock_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_clock_starts_at_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_timeout_advances_clock(self, env):
        env.timeout(3.5)
        env.run()
        assert env.now == 3.5

    def test_run_until_leaves_clock_at_until(self, env):
        env.timeout(1.0)
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_until_does_not_process_later_events(self, env):
        fired = []
        env.timeout(5.0).callbacks.append(lambda ev: fired.append(5))
        env.run(until=2.0)
        assert fired == []

    def test_run_until_processes_events_at_exactly_until(self, env):
        fired = []
        env.timeout(2.0).callbacks.append(lambda ev: fired.append(2))
        env.run(until=2.0)
        assert fired == [2]

    def test_run_until_past_raises(self, env):
        env.timeout(1.0)
        env.run()
        with pytest.raises(SimulationError):
            env.run(until=0.5)

    def test_step_without_events_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_peek_returns_next_event_time(self, env):
        env.timeout(4.0)
        env.timeout(2.0)
        assert env.peek() == 2.0

    def test_equal_time_events_fire_in_schedule_order(self, env):
        order = []
        for tag in range(5):
            event = env.timeout(1.0, value=tag)
            event.callbacks.append(lambda ev: order.append(ev.value))
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_due_timer_entry_precedes_later_ready_event(self, env):
        # Two timeouts due at t=1; the first one's callback schedules a
        # zero-delay event, which must run after the second timeout (it
        # was scheduled later), exactly as one (time, seq) heap orders it.
        order = []

        def first(ev):
            order.append("first")
            follow = env.event()
            follow.callbacks.append(lambda e: order.append("follow"))
            follow.succeed()

        env.timeout(1.0).callbacks.append(first)
        env.timeout(1.0).callbacks.append(lambda ev: order.append("second"))
        env.run()
        assert order == ["first", "second", "follow"]

    def test_far_future_timeouts_fire_in_order(self, env):
        fired = []
        env.timeout(1e6).callbacks.append(lambda ev: fired.append(env.now))
        env.run()
        env.timeout(0.5).callbacks.append(lambda ev: fired.append(env.now))
        env.timeout(1e6).callbacks.append(lambda ev: fired.append(env.now))
        env.run()
        assert fired == [1e6, 1e6 + 0.5, 2e6]
        assert env.peek() == float("inf")

    def test_push_at(self, env):
        order = []

        def bare(value):
            # A pre-triggered event that has NOT self-scheduled: the shape
            # push_at/push_ready exist for (compiled pipelines build these).
            event = Event.__new__(Event)
            event.env = env
            event.callbacks = [lambda e: order.append(e.value)]
            event._ok = True
            event._value = value
            return event

        env.push_at(3.0, bare("late"))
        env.push_at(1.0, bare("soon"))
        env.push_at(0.0, bare("now"))  # time == now: ready-deque path
        env.push_ready(bare("also-now"))
        env.run()
        assert order == ["now", "also-now", "soon", "late"]
        assert env.now == 3.0
        with pytest.raises(SimulationError):
            env.push_at(1.0, bare("past"))


class TestEvent:
    def test_initially_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_sets_value(self, env):
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_double_trigger_rejected(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().value

    def test_callbacks_run_on_processing(self, env):
        event = env.event()
        seen = []
        event.callbacks.append(lambda ev: seen.append(ev.value))
        event.succeed("payload")
        assert seen == []  # triggered but not yet processed
        env.run()
        assert seen == ["payload"]


class TestProcess:
    def test_process_waits_on_timeouts(self, env):
        trace = []

        def body():
            trace.append(env.now)
            yield env.timeout(1.0)
            trace.append(env.now)
            yield env.timeout(2.0)
            trace.append(env.now)

        env.process(body())
        env.run()
        assert trace == [0.0, 1.0, 3.0]

    def test_process_receives_event_value(self, env):
        got = []

        def body():
            value = yield env.timeout(1.0, value="hello")
            got.append(value)

        env.process(body())
        env.run()
        assert got == ["hello"]

    def test_process_is_waitable_event(self, env):
        def child():
            yield env.timeout(2.0)
            return "done"

        def parent():
            result = yield env.process(child())
            assert result == "done"
            assert env.now == 2.0

        env.process(parent())
        env.run()

    def test_yielding_already_processed_event_continues_immediately(self, env):
        def body():
            timeout = env.timeout(1.0, value="early")
            yield env.timeout(5.0)
            value = yield timeout  # fired long ago
            assert value == "early"
            assert env.now == 5.0

        env.process(body())
        env.run()

    def test_failed_event_throws_into_process(self, env):
        caught = []

        def body():
            event = env.event()
            event.fail(ValueError("boom"))
            try:
                yield event
            except ValueError as exc:
                caught.append(str(exc))

        env.process(body())
        env.run()
        assert caught == ["boom"]

    def test_unhandled_crash_propagates(self, env):
        def body():
            yield env.timeout(1.0)
            raise RuntimeError("dead")

        env.process(body())
        with pytest.raises(ProcessCrash):
            env.run()

    def test_crash_delivered_to_waiting_parent(self, env):
        def child():
            yield env.timeout(1.0)
            raise RuntimeError("child died")

        def parent():
            proc = env.process(child())
            yield env.timeout(0.5)  # ensure parent is waiting when child dies
            try:
                yield proc
            except RuntimeError as exc:
                return str(exc)

        parent_proc = env.process(parent())
        env.run()
        assert parent_proc.value == "child died"

    def test_yielding_non_event_raises(self, env):
        def body():
            yield 42

        env.process(body())
        with pytest.raises(SimulationError):
            env.run()

    def test_non_generator_rejected(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_is_alive(self, env):
        def body():
            yield env.timeout(1.0)

        proc = env.process(body())
        assert proc.is_alive
        env.run()
        assert not proc.is_alive


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        def body():
            yield env.all_of([env.timeout(1.0), env.timeout(3.0), env.timeout(2.0)])
            assert env.now == 3.0

        env.process(body())
        env.run()

    def test_any_of_fires_on_first(self, env):
        def body():
            yield env.any_of([env.timeout(5.0), env.timeout(1.0)])
            assert env.now == 1.0

        env.process(body())
        env.run()

    def test_all_of_empty_fires_immediately(self, env):
        def body():
            yield env.all_of([])
            assert env.now == 0.0

        env.process(body())
        env.run()

    def test_all_of_collects_values(self, env):
        events = [env.timeout(1.0, value="a"), env.timeout(2.0, value="b")]

        def body():
            values = yield env.all_of(events)
            assert [values[event] for event in events] == ["a", "b"]

        env.process(body())
        env.run()

    def test_all_of_fails_on_child_failure(self, env):
        def body():
            failing = env.event()
            failing.fail(KeyError("gone"))
            try:
                yield env.all_of([env.timeout(10.0), failing])
            except KeyError:
                return "failed"

        proc = env.process(body())
        env.run()
        assert proc.value == "failed"
