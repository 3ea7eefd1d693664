"""Kernel edge cases the same-instant batching refactor must preserve.

The event calendar routes zero-delay schedules through a FIFO deque
(`Environment._nowq`) instead of the heap; these tests pin the behaviors
that refactor is *not* allowed to change: interrupt delivery against
in-flight fluid work, combinators over already-triggered events,
``call_later`` at the exact current timestamp, and — via hypothesis —
the global (time, insertion) ordering invariant under random schedules.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (Environment, FluidResource, Interrupt,
                       SimulationError)


class TestInterruptDuringSettle:
    def test_interrupt_mid_flow_settles_accrued_progress(self):
        # Interrupting a consumer forces a settle at the interrupt time:
        # the removed flow must have exactly rate*elapsed work drained.
        env = Environment()
        res = FluidResource(env, capacity=10.0, name="cpu")
        seen = {}

        def worker():
            flow = res.submit(100.0)  # 10 s at full rate
            try:
                yield flow.done
            except Interrupt as intr:
                seen["cause"] = intr.cause
                seen["at"] = env.now
                seen["remaining"] = res.remove(flow)

        p = env.process(worker())
        env.schedule_callback(4.0, lambda: p.interrupt("revoked"))
        env.run()
        assert seen["cause"] == "revoked"
        assert seen["at"] == 4.0
        assert seen["remaining"] == pytest.approx(60.0)
        # The resource is idle again and its busy integral covers [0, 4].
        assert res.used_rate == 0.0
        assert res.busy_time() == pytest.approx(4.0)

    def test_interrupted_consume_withdraws_its_flow(self):
        env = Environment()
        res = FluidResource(env, capacity=8.0)
        caught = {}

        def worker():
            try:
                yield from res.consume(64.0)
            except Interrupt:
                caught["at"] = env.now

        def bystander():
            flow = yield from res.consume(32.0)
            caught["bystander_done"] = env.now
            return flow

        p = env.process(worker())
        env.process(bystander())
        env.schedule_callback(2.0, lambda: p.interrupt())
        env.run()
        assert caught["at"] == 2.0
        # 0-2 s shared at 4 each (8 drained), then full rate for the
        # remaining 24 units: done at 2 + 24/8 = 5 s.
        assert caught["bystander_done"] == pytest.approx(5.0)
        assert res.used_rate == 0.0


class TestConditionsOverTriggeredEvents:
    def test_any_of_with_already_processed_event_fires_immediately(self):
        env = Environment()
        done = env.event()
        done.succeed("early")
        env.run()  # process it: callbacks are gone, value is final
        assert done.processed
        pending = env.event()
        got = {}

        def waiter():
            result = yield env.any_of([done, pending])
            got["value"] = result
            got["at"] = env.now

        env.process(waiter())
        env.run()
        assert got["at"] == 0.0
        assert got["value"] == {done: "early"}

    def test_all_of_with_mixed_triggered_and_pending(self):
        env = Environment()
        first = env.event()
        first.succeed(1)
        env.run()
        second = env.timeout(3.0, value=2)
        got = {}

        def waiter():
            result = yield env.all_of([first, second])
            got["value"] = result
            got["at"] = env.now

        env.process(waiter())
        env.run()
        assert got["at"] == 3.0
        assert got["value"] == {first: 1, second: 2}

    def test_all_of_already_failed_event_fails_the_condition(self):
        env = Environment()
        bad = env.event()
        bad.fail(RuntimeError("boom"))
        env.run()
        cond = env.all_of([bad, env.event()])

        def waiter():
            with pytest.raises(RuntimeError, match="boom"):
                yield cond
            return "survived"

        p = env.process(waiter())
        assert env.run(until=p) == "survived"


class TestCallLaterAtNow:
    def test_zero_delay_fires_at_current_time_in_fifo_order(self):
        env = Environment()
        fired = []
        env.run(until=5.0)
        env.call_later(0.0, lambda: fired.append(("a", env.now)))
        env.call_later(0.0, lambda: fired.append(("b", env.now)))
        env.run()
        assert fired == [("a", 5.0), ("b", 5.0)]
        assert env.now == 5.0

    def test_zero_delay_rescheduled_from_callback_stays_at_now(self):
        # A callback that re-arms itself with delay 0 keeps running at
        # the same instant (and must not starve a later timeout forever
        # because it terminates).
        env = Environment()
        ticks = []

        def again():
            ticks.append(env.now)
            if len(ticks) < 3:
                env.call_later(0.0, again)

        env.call_later(0.0, again)
        env.schedule_callback(1.0, lambda: ticks.append("late"))
        env.run()
        assert ticks == [0.0, 0.0, 0.0, "late"]

    def test_zero_delay_runs_before_strictly_future_events(self):
        env = Environment()
        order = []
        env.schedule_callback(0.5, lambda: order.append("future"))
        env.call_later(0.0, lambda: order.append("now"))
        env.run()
        assert order == ["now", "future"]

    def test_reserved_tie_files_a_heap_entry_where_it_was_reserved(self):
        env = Environment()
        fired = []
        tie = next(env._counter)
        env.call_later(1.0, lambda: fired.append("scheduled first"))
        env.call_later(1.0, lambda: fired.append("reserved first"), tie=tie)
        env.call_later(0.0, lambda: fired.append("now"), tie=tie)
        env.run()
        # The tie orders heap entries only; a zero delay stays FIFO.
        assert fired == ["now", "reserved first", "scheduled first"]


class TestCallBatched:
    def test_one_entry_runs_every_callable_queued_before_it(self):
        env = Environment()
        order = []
        env.call_later(0.0, lambda: order.append("before"))
        env.call_batched(lambda: order.append("a"))
        env.call_later(0.0, lambda: order.append("between"))
        env.call_batched(lambda: order.append("b"))
        env.run()
        assert order == ["before", "a", "b", "between"]

    def test_queueing_after_the_entry_fired_schedules_a_new_one(self):
        env = Environment()
        order = []

        def first():
            order.append("first")
            env.call_batched(lambda: order.append("second"))

        env.call_batched(first)
        env.call_later(0.0, lambda: order.append("fifo"))
        env.run()
        assert order == ["first", "fifo", "second"]
        assert env.now == 0.0


class TestHeapInvariantProperties:
    @given(st.lists(st.one_of(st.just(0.0),
                              st.floats(min_value=0.0, max_value=100.0,
                                        allow_nan=False)),
                    min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_fire_order_is_time_then_insertion(self, delays):
        env = Environment()
        fired = []
        for i, d in enumerate(delays):
            env.call_later(d, lambda i=i, d=d: fired.append((env.now, i, d)))
        env.run()
        assert len(fired) == len(delays)
        for now, i, d in fired:
            assert now == d  # fires exactly at its scheduled time
        # Global order: time strictly non-decreasing, ties in insertion
        # order (the counter shared by heap and now-queue).
        keys = [(now, i) for now, i, _d in fired]
        assert keys == sorted(keys)

    @given(st.lists(st.tuples(
        st.one_of(st.just(0.0),
                  st.floats(min_value=0.0, max_value=10.0,
                            allow_nan=False)),
        st.one_of(st.just(0.0),
                  st.floats(min_value=0.0, max_value=10.0,
                            allow_nan=False))),
        min_size=1, max_size=25))
    @settings(max_examples=100, deadline=None)
    def test_nested_schedules_never_move_time_backwards(self, pairs):
        # Each item schedules a second callback from inside the first —
        # including zero delays at the current instant — exercising the
        # now-queue/heap interleaving that step() arbitrates.
        env = Environment()
        times = []

        def outer(d2):
            times.append(env.now)
            env.call_later(d2, lambda: times.append(env.now))

        for d1, d2 in pairs:
            env.call_later(d1, lambda d2=d2: outer(d2))
        env.run()
        assert len(times) == 2 * len(pairs)
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_step_on_empty_calendar_raises(self):
        env = Environment()
        with pytest.raises(SimulationError, match="empty event calendar"):
            env.step()

    def test_peek_sees_now_queue_before_heap(self):
        env = Environment()
        env.schedule_callback(2.0, lambda: None)
        assert env.peek() == 2.0
        env.call_later(0.0, lambda: None)
        assert env.peek() == 0.0
        env.run()
        assert env.peek() == float("inf")
