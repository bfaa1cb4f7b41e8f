"""Behavioral parity tests between the two event-loop implementations.

``repro.sim.engine.Simulator`` (tuple-heap, inlined run loop) and
``repro.sim.engine_reference.ReferenceSimulator`` (dataclass events,
peek/pop loop) must be interchangeable: every test here drives both
through the same schedule and asserts identical observable behavior —
execution order, clock positions, budget semantics, cancellation, and
error handling.  Randomized schedules come from hypothesis so the FIFO
tie-breaking parity is exercised beyond hand-picked cases.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator
from repro.sim.engine_reference import ReferenceSimulator

BOTH = pytest.mark.parametrize(
    "make_sim", [Simulator, ReferenceSimulator], ids=["optimized", "reference"]
)


class TestEachEngine:
    @BOTH
    def test_runs_in_time_order_with_fifo_ties(self, make_sim):
        sim = make_sim()
        order = []
        sim.schedule(2.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(1.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 2.0
        assert sim.events_executed == 3

    @BOTH
    def test_until_clamps_clock_when_queue_drains(self, make_sim):
        sim = make_sim()
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=5.0) == 5.0
        assert sim.now == 5.0

    @BOTH
    def test_until_excludes_later_events(self, make_sim):
        sim = make_sim()
        ran = []
        sim.schedule(1.0, lambda: ran.append(1))
        sim.schedule(3.0, lambda: ran.append(3))
        sim.run(until=2.0)
        assert ran == [1]
        assert sim.now == 2.0

    @BOTH
    def test_nonpositive_max_events_runs_one_event(self, make_sim):
        sim = make_sim()
        ran = []
        sim.schedule(1.0, lambda: ran.append(1))
        sim.schedule(2.0, lambda: ran.append(2))
        sim.run(max_events=0)
        assert ran == [1]

    @BOTH
    def test_cancel_skips_event_and_is_idempotent(self, make_sim):
        sim = make_sim()
        ran = []
        handle = sim.schedule(1.0, lambda: ran.append("cancelled"))
        sim.schedule(2.0, lambda: ran.append("kept"))
        sim.cancel(handle)
        sim.cancel(handle)
        sim.run()
        assert ran == ["kept"]
        assert sim.events_executed == 1

    @BOTH
    def test_stop_halts_after_current_event(self, make_sim):
        sim = make_sim()
        ran = []
        sim.schedule(1.0, lambda: (ran.append(1), sim.stop()))
        sim.schedule(2.0, lambda: ran.append(2))
        sim.run()
        assert ran == [1]
        assert sim.now == 1.0

    @BOTH
    def test_negative_delay_rejected(self, make_sim):
        sim = make_sim()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_many([(1.0, lambda: None, ""), (-1.0, lambda: None, "")])

    @BOTH
    def test_schedule_at_rejects_past(self, make_sim):
        sim = make_sim()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    @BOTH
    def test_not_reentrant(self, make_sim):
        sim = make_sim()
        caught = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                caught.append(exc)

        sim.schedule(1.0, reenter)
        sim.run()
        assert len(caught) == 1

    @BOTH
    def test_schedule_many_interleaves_like_serial_schedules(self, make_sim):
        sim = make_sim()
        order = []
        sim.schedule(1.0, lambda: order.append("pre"))
        sim.schedule_many([
            (1.0, lambda: order.append("batch-a"), "a"),
            (0.5, lambda: order.append("batch-b"), "b"),
        ])
        sim.schedule(1.0, lambda: order.append("post"))
        sim.run()
        assert order == ["batch-b", "pre", "batch-a", "post"]


# Randomized differential schedules: both engines must execute the exact
# same callback sequence and finish at the same clock/counter state.

# Adversarial time distributions: dense near-future, exact-tie bursts,
# and far-future stragglers.
adversarial_times = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.sampled_from([0.0, 0.25, 0.25, 0.5, 0.5, 0.5]),
    st.floats(min_value=1e3, max_value=1e4, allow_nan=False),
)

schedule_ops = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.booleans(),  # cancel this event before running?
    ),
    min_size=1,
    max_size=30,
)


class TestDifferentialSchedules:
    @given(ops=schedule_ops,
           until=st.one_of(st.none(), st.floats(0.0, 12.0, allow_nan=False)),
           max_events=st.one_of(st.none(), st.integers(1, 20)))
    @settings(max_examples=100, deadline=None)
    def test_same_schedule_same_execution(self, ops, until, max_events):
        logs = []
        sims = []
        for make_sim in (Simulator, ReferenceSimulator):
            sim = make_sim()
            log = []
            handles = [
                sim.schedule(delay, lambda i=i, log=log: log.append(i))
                for i, (delay, _) in enumerate(ops)
            ]
            for handle, (_, cancel) in zip(handles, ops):
                if cancel:
                    sim.cancel(handle)
            sim.run(until=until, max_events=max_events)
            logs.append(log)
            sims.append(sim)
        assert logs[0] == logs[1]
        assert sims[0].now == sims[1].now
        assert sims[0].events_executed == sims[1].events_executed

    @given(ops=st.lists(st.floats(0.0, 5.0, allow_nan=False),
                        min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_nested_scheduling_parity(self, ops):
        def drive(sim):
            log = []

            def spawn(depth, delay):
                log.append((round(sim.now, 9), depth))
                if depth < 2:
                    sim.schedule(delay, lambda: spawn(depth + 1, delay))

            for delay in ops:
                sim.schedule(delay, lambda d=delay: spawn(0, d))
            sim.run(until=20.0)
            return log, sim.now, sim.events_executed

        assert drive(Simulator()) == drive(ReferenceSimulator())

    @given(
        ops=st.lists(
            st.tuples(adversarial_times, st.booleans()), min_size=1, max_size=40
        ),
        until=st.one_of(st.none(), st.floats(0.0, 12.0, allow_nan=False)),
        max_events=st.one_of(st.none(), st.integers(1, 30)),
    )
    @settings(max_examples=100, deadline=None)
    def test_adversarial_times_same_execution(self, ops, until, max_events):
        def drive(sim):
            log = []
            handles = [
                sim.schedule(delay, lambda i=i, log=log: log.append(i))
                for i, (delay, _) in enumerate(ops)
            ]
            for handle, (_, cancel) in zip(handles, ops):
                if cancel:
                    sim.cancel(handle)
            sim.run(until=until, max_events=max_events)
            return log, sim.now, sim.events_executed

        assert drive(Simulator()) == drive(ReferenceSimulator())

    @given(
        delays=st.lists(st.floats(0.0, 2.0, allow_nan=False),
                        min_size=1, max_size=10),
        generations=st.integers(1, 3),
    )
    @settings(max_examples=50, deadline=None)
    def test_zero_delay_self_reschedule_parity(self, delays, generations):
        def drive(sim):
            log = []

            def spawn(tag, depth):
                log.append((round(sim.now, 9), tag, depth))
                if depth < generations:
                    # Zero-delay self-reschedule: must run later this same
                    # instant, after already-queued ties (FIFO).
                    sim.schedule(0.0, lambda: spawn(tag, depth + 1))

            for i, delay in enumerate(delays):
                sim.schedule(delay, lambda i=i: spawn(i, 0))
            sim.run(until=10.0)
            return log, sim.now, sim.events_executed

        assert drive(Simulator()) == drive(ReferenceSimulator())

    @given(
        ops=st.lists(st.tuples(adversarial_times, st.integers(0, 3)),
                     min_size=1, max_size=25)
    )
    @settings(max_examples=50, deadline=None)
    def test_cancel_during_execution_parity(self, ops):
        def drive(sim):
            log = []
            handles = []

            def fire(i, victim):
                log.append((round(sim.now, 9), i))
                # Cancel a pending handle mid-run (never an executed one:
                # that is caller error on every engine).
                target = handles[victim % len(handles)]
                if not target.cancelled and target.time > sim.now:
                    sim.cancel(target)

            for i, (delay, victim) in enumerate(ops):
                handles.append(sim.schedule(delay, lambda i=i, v=victim: fire(i, v)))
            sim.run()
            return log, sim.now, sim.events_executed

        assert drive(Simulator()) == drive(ReferenceSimulator())
