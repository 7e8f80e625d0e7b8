"""Edge-case tests for the DES kernel (paths missed by the main suite)."""

import pytest

from repro.sim import Environment, Interrupt, Resource, SimulationError


def test_all_of_fails_if_any_constituent_fails():
    env = Environment()
    bad = env.event()
    slow = env.timeout(10.0)

    def proc():
        with pytest.raises(ValueError, match="boom"):
            yield env.all_of([bad, slow])
        return "caught"

    def failer():
        yield env.timeout(1.0)
        bad.fail(ValueError("boom"))

    p = env.process(proc())
    env.process(failer())
    assert env.run(p) == "caught"


def test_any_of_fails_fast_on_failure():
    env = Environment()
    bad = env.event()

    def proc():
        with pytest.raises(RuntimeError):
            yield env.any_of([bad, env.timeout(100.0)])
        return env.now

    def failer():
        yield env.timeout(2.0)
        bad.fail(RuntimeError("x"))

    p = env.process(proc())
    env.process(failer())
    assert env.run(p) == 2.0


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()
    done = env.timeout(1.0, value="early")
    env.run()  # processes the timeout

    def proc():
        value = yield done  # already processed
        return (env.now, value)

    assert env.run(env.process(proc())) == (1.0, "early")


def test_interrupt_while_waiting_on_resource_cancels_request():
    env = Environment()
    res = Resource(env, capacity=1)
    got = []

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(50.0)

    def waiter():
        req = res.request()
        try:
            yield req
            got.append("granted")
        except Interrupt:
            req.cancel()
            got.append("interrupted")

    def interrupter(target):
        yield env.timeout(5.0)
        target.interrupt()

    env.process(holder())
    target = env.process(waiter())
    env.process(interrupter(target))
    env.run()
    assert got == ["interrupted"]
    # the canceled request never steals the slot later
    assert res.queue_length == 0


def test_condition_events_must_share_environment():
    env_a, env_b = Environment(), Environment()
    with pytest.raises(SimulationError, match="environments"):
        env_a.all_of([env_a.timeout(1), env_b.timeout(1)])


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(SimulationError, match="exception"):
        env.event().fail("not an exception")


def test_run_until_event_from_empty_queue_raises():
    env = Environment()
    pending = env.event()  # never triggered, nothing scheduled
    with pytest.raises(SimulationError, match="never fired"):
        env.run(until=pending)


def test_step_with_no_events_raises():
    env = Environment()
    with pytest.raises(SimulationError, match="no scheduled"):
        env.step()


def test_run_to_horizon_advances_clock_past_last_event():
    env = Environment()
    env.timeout(3.0)
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_to_horizon_with_empty_queue_still_advances_clock():
    env = Environment()
    env.run(until=7.5)
    assert env.now == 7.5
    # and again, from a non-zero clock
    env.run(until=9.0)
    assert env.now == 9.0


def test_interrupt_when_target_fires_at_same_timestamp():
    # The interrupt is delivered at the same simulated time the
    # process's awaited event fires.  The urgent-priority interrupt
    # wins, the process detaches from its target, and the orphaned
    # event firing afterwards must not resume the process a second
    # time.
    env = Environment()
    log = []
    holder = {}

    def attacker():
        yield env.timeout(5.0)
        holder["victim"].interrupt(cause="same-instant")

    def victim():
        try:
            yield env.timeout(5.0, value="fired")
            log.append("fired")
        except Interrupt as intr:
            log.append(("interrupted", intr.cause, env.now))
            value = yield env.timeout(1.0, value="resumed")
            log.append(value)
        return "done"

    # attacker first, so its t=5 timeout fires before the victim's
    env.process(attacker())
    holder["victim"] = proc = env.process(victim())
    assert env.run(proc) == "done"
    assert log == [("interrupted", "same-instant", 5.0), "resumed"]
    assert env.now == 6.0


def test_conditions_over_already_processed_events():
    env = Environment()
    a = env.timeout(1.0, value="a")
    b = env.timeout(2.0, value="b")
    env.run()
    assert a.processed and b.processed

    any_c = env.any_of([a, b])
    all_c = env.all_of([a, b])
    assert env.run(all_c) == {a: "a", b: "b"}
    assert env.run(any_c) == {a: "a", b: "b"}


def test_conditions_over_already_failed_event():
    env = Environment()
    bad = env.event()
    bad.fail(ValueError("stale failure"))
    env.run()

    with pytest.raises(ValueError, match="stale failure"):
        env.run(env.all_of([bad, env.timeout(1.0)]))
    with pytest.raises(ValueError, match="stale failure"):
        env.run(env.any_of([bad, env.timeout(1.0)]))
