"""Unit tests for the DES event loop and process machinery."""

import pytest

from repro.sim import Environment, Interrupt, SimulationError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=100.0)
    assert env.now == 100.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(5.0)
        return env.now

    p = env.process(proc())
    result = env.run(p)
    assert result == 5.0
    assert env.now == 5.0


def test_timeout_value_passthrough():
    env = Environment()

    def proc():
        got = yield env.timeout(1.0, value="payload")
        return got

    assert env.run(env.process(proc())) == "payload"


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_sequential_timeouts_accumulate():
    env = Environment()
    trace = []

    def proc():
        for delay in (1.0, 2.0, 3.0):
            yield env.timeout(delay)
            trace.append(env.now)

    env.run(env.process(proc()))
    assert trace == [1.0, 3.0, 6.0]


def test_two_processes_interleave_deterministically():
    env = Environment()
    trace = []

    def worker(name, delay):
        yield env.timeout(delay)
        trace.append((env.now, name))
        yield env.timeout(delay)
        trace.append((env.now, name))

    env.process(worker("a", 2.0))
    env.process(worker("b", 3.0))
    env.run()
    assert trace == [(2.0, "a"), (3.0, "b"), (4.0, "a"), (6.0, "b")]


def test_simultaneous_events_fire_in_creation_order():
    env = Environment()
    trace = []

    def worker(name):
        yield env.timeout(1.0)
        trace.append(name)

    for name in ("first", "second", "third"):
        env.process(worker(name))
    env.run()
    assert trace == ["first", "second", "third"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10.0)

    env.process(proc())
    env.run(until=25.0)
    assert env.now == 25.0


def test_run_until_past_time_rejected():
    env = Environment(initial_time=50.0)
    with pytest.raises(SimulationError):
        env.run(until=10.0)


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    trace = []

    def waiter():
        value = yield gate
        trace.append((env.now, value))

    def opener():
        yield env.timeout(7.0)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert trace == [(7.0, "open")]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()

    def waiter():
        with pytest.raises(ValueError, match="boom"):
            yield gate
        return "handled"

    def failer():
        yield env.timeout(1.0)
        gate.fail(ValueError("boom"))

    p = env.process(waiter())
    env.process(failer())
    assert env.run(p) == "handled"


def test_process_return_value():
    env = Environment()

    def child():
        yield env.timeout(2.0)
        return 99

    def parent():
        value = yield env.process(child())
        return value + 1

    assert env.run(env.process(parent())) == 100


def test_process_exception_propagates_to_parent():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        raise RuntimeError("child died")

    def parent():
        try:
            yield env.process(child())
        except RuntimeError as exc:
            return str(exc)

    assert env.run(env.process(parent())) == "child died"


def test_unhandled_process_exception_crashes_run():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise RuntimeError("unobserved")

    env.process(proc())
    with pytest.raises(RuntimeError, match="unobserved"):
        env.run()


def test_yield_non_event_is_an_error():
    # Anything that is not an Event crashes the simulation loudly.
    env = Environment()

    def proc():
        yield object()

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()


def test_interrupt_wakes_blocked_process():
    env = Environment()
    trace = []

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt as intr:
            trace.append((env.now, intr.cause))

    def interrupter(target):
        yield env.timeout(3.0)
        target.interrupt(cause="wake up")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert trace == [(3.0, "wake up")]


def test_interrupt_terminated_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt:
            pass
        yield env.timeout(5.0)
        return env.now

    def interrupter(target):
        yield env.timeout(2.0)
        target.interrupt()

    target = env.process(sleeper())
    env.process(interrupter(target))
    assert env.run(target) == 7.0


def _interrupt_twice_at(env, target, when):
    def interrupter():
        yield env.timeout(when)
        target.interrupt("first")
        target.interrupt("second")

    env.process(interrupter())


def test_interrupt_pending_when_the_process_ends_is_dropped():
    """The first of two same-instant interrupts ends the process; the
    second neither crashes the run nor fires the process event twice."""
    env = Environment()

    def victim():
        try:
            yield env.timeout(100.0)
        except Interrupt as intr:
            return intr.cause

    target = env.process(victim())
    fired = []
    target.callbacks.append(lambda event: fired.append(event.value))
    _interrupt_twice_at(env, target, 2.0)
    env.run()
    assert fired == ["first"]


def test_interrupt_pending_when_the_process_waits_again_detaches_it():
    env = Environment()
    trace = []

    def victim():
        for _ in range(2):
            try:
                yield env.timeout(100.0)
            except Interrupt as intr:
                trace.append((env.now, intr.cause))
        yield env.timeout(5.0)
        trace.append((env.now, "done"))

    target = env.process(victim())
    _interrupt_twice_at(env, target, 2.0)
    env.run()
    assert trace == [(2.0, "first"), (2.0, "second"), (7.0, "done")]


def test_process_may_interrupt_itself():
    env = Environment()

    def selfish():
        env.active_process.interrupt("me")
        try:
            yield env.timeout(10.0)
        except Interrupt as intr:
            assert (env.now, intr.cause) == (0.0, "me")
        yield env.timeout(1.0)
        return env.now

    proc = env.process(selfish())
    env.run()                     # the abandoned timeout resumes nothing
    assert proc.value == 1.0 and env.now == 10.0


def test_any_of_fires_on_first():
    env = Environment()

    def proc():
        fast = env.timeout(1.0, value="fast")
        slow = env.timeout(10.0, value="slow")
        results = yield env.any_of([fast, slow])
        return (env.now, list(results.values()))

    when, values = env.run(env.process(proc()))
    assert when == 1.0
    assert values == ["fast"]


def test_all_of_waits_for_all():
    env = Environment()

    def proc():
        events = [env.timeout(t, value=t) for t in (1.0, 5.0, 3.0)]
        results = yield env.all_of(events)
        return (env.now, sorted(results.values()))

    when, values = env.run(env.process(proc()))
    assert when == 5.0
    assert values == [1.0, 3.0, 5.0]


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc():
        yield env.all_of([])
        return env.now

    assert env.run(env.process(proc())) == 0.0


def test_process_is_alive_lifecycle():
    env = Environment()

    def proc():
        yield env.timeout(5.0)

    p = env.process(proc())
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(4.0)
    assert env.peek() == 4.0


def test_peek_empty_queue_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_run_until_event_already_processed_returns_value():
    env = Environment()
    ev = env.timeout(1.0, value="x")
    env.run()
    assert env.run(until=ev) == "x"
