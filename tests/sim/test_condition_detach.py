"""A settled Condition unsubscribes from its still-pending operands.

The reference model at the bottom (``LeakyAnyOf``/``LeakyAllOf``) is
the pre-detach kernel behaviour: subscribe to every operand, never
unsubscribe.  The property test proves detaching changes *when nothing*
— every condition settles at the same time with the same value.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.engine import AllOf, AnyOf, Condition, Event, Interrupt


def _subscribed(condition, event):
    return condition._check in event.callbacks


def test_any_of_detaches_from_long_lived_operand():
    env = Environment()
    long_lived = env.event()
    cond = env.any_of([env.timeout(1.0), long_lived])
    assert _subscribed(cond, long_lived)
    env.run(cond)
    assert env.now == 1.0
    assert long_lived.callbacks == []


def test_other_subscribers_keep_order_and_still_fire():
    env = Environment()
    long_lived = env.event()
    fired = []
    long_lived.callbacks.append(lambda e: fired.append("a"))
    cond = env.any_of([env.timeout(1.0), long_lived])
    long_lived.callbacks.append(lambda e: fired.append("b"))
    later = env.any_of([env.timeout(5.0), long_lived])
    long_lived.callbacks.append(lambda e: fired.append("c"))
    env.run(cond)
    assert len(long_lived.callbacks) == 4
    assert long_lived.callbacks[2] == later._check
    long_lived.succeed("boom")
    env.run(later)
    assert fired == ["a", "b", "c"]
    assert later.value == {long_lived: "boom"}


def test_firing_operand_after_settle_does_not_retrigger():
    env = Environment()
    long_lived = env.event()
    timeout = env.timeout(1.0)
    cond = env.any_of([timeout, long_lived])
    env.run(cond)
    settled = cond.value
    long_lived.succeed()
    env.run()
    assert cond.processed and cond.ok
    assert cond.value is settled and settled == {timeout: None}


def test_any_of_detaches_when_the_long_lived_side_wins():
    env = Environment()
    long_lived = env.event()
    timeout = env.timeout(10.0)
    cond = env.any_of([timeout, long_lived])
    long_lived.succeed("x")
    env.run(cond)
    assert env.now == 0.0
    assert timeout.callbacks == []
    env.run()                     # the orphaned timeout fires harmlessly
    assert env.now == 10.0


def test_any_of_failure_detaches_and_propagates():
    env = Environment()
    bad, other = env.event(), env.event()
    cond = env.any_of([bad, other])
    bad.fail(RuntimeError("nope"))
    with pytest.raises(RuntimeError, match="nope"):
        env.run(cond)
    assert other.callbacks == []


def test_all_of_detaches_on_fail_fast():
    env = Environment()
    first, bad, pending = env.timeout(1.0), env.event(), env.event()
    cond = env.all_of([first, bad, pending])
    bad.fail(ValueError("early"))
    with pytest.raises(ValueError, match="early"):
        env.run(cond)
    assert first.callbacks == [] and pending.callbacks == []
    env.run()
    assert not cond.ok


def test_all_of_holds_no_subscription_after_last_operand():
    """Every operand of a satisfied AllOf has dispatched (that is what
    counted it), so there is nothing left to detach from — including
    an operand listed twice, which subscribed twice."""
    env = Environment()
    shared = env.event()
    cond = env.all_of([env.timeout(1.0), shared, shared, env.timeout(2.0)])
    assert shared.callbacks.count(cond._check) == 2
    shared.succeed("s")
    env.run(cond)
    assert env.now == 2.0
    assert all(e.callbacks is None for e in cond._events)
    assert cond.value[shared] == "s"


def test_mid_dispatch_operand_is_skipped():
    """The operand whose dispatch settles the condition has
    ``callbacks is None`` at that moment; detach must not touch it."""
    env = Environment()
    a, b = env.event(), env.event()
    seen = []
    a.callbacks.append(lambda e: seen.append(a.callbacks))
    cond = env.any_of([a, b])
    a.callbacks.append(lambda e: seen.append("after"))
    a.succeed()
    env.run(cond)
    assert seen == [None, "after"]
    assert b.callbacks == []


def test_condition_over_processed_operand_settles_inline():
    env = Environment()
    done = env.timeout(0.0)
    env.run(done)
    pending_before, pending_after = env.event(), env.event()
    cond = env.any_of([pending_before, done, pending_after])
    assert cond.triggered and cond.value == {done: None}
    # detached from the operand subscribed before the inline settle,
    # never subscribed to the one after it
    assert pending_before.callbacks == [] and pending_after.callbacks == []
    all_cond = env.all_of([done, done])
    assert all_cond.triggered


def test_operand_conditions_stay_subscribed():
    """Detach is shallow: an operand that is itself a Condition is an
    event others may still wait on, so it keeps its subscriptions."""
    env = Environment()
    slow = env.timeout(5.0)
    inner = env.all_of([slow])
    outer = env.any_of([inner, env.timeout(1.0)])
    env.run(outer)
    assert env.now == 1.0
    assert inner.callbacks == []          # outer let go of inner …
    assert _subscribed(inner, slow)       # … inner still tracks slow
    env.run(inner)
    assert env.now == 5.0


def test_interrupted_waiter_leaves_the_condition_to_detach_itself():
    env = Environment()
    long_lived = env.event()

    def worker():
        try:
            yield env.any_of([env.timeout(3.0), long_lived])
        except Interrupt:
            return "interrupted"

    proc = env.process(worker())
    env.run(until=1.0)
    proc.interrupt("stop")
    assert env.run(proc) == "interrupted"
    assert len(long_lived.callbacks) == 1   # the condition still races
    env.run(until=4.0)
    assert long_lived.callbacks == []       # its timeout settled it


# ------------------------------------------------------- reference model
class _Leaky(Condition):
    """The pre-detach kernel: subscribe everywhere, never let go."""

    __slots__ = ()

    def _detach(self):
        pass


class LeakyAnyOf(_Leaky, AnyOf):
    __slots__ = ()


class LeakyAllOf(_Leaky, AllOf):
    __slots__ = ()


_PLAN = st.tuples(
    # shared base events: (fire time or None = never fires, fails?)
    st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 6)),
                       st.booleans()),
             min_size=1, max_size=6),
    # conditions: (creation time, is_any, operand indices)
    st.lists(st.tuples(st.integers(0, 7), st.booleans(),
                       st.lists(st.integers(0, 5), min_size=1,
                                max_size=5)),
             min_size=1, max_size=8))


def _settlements(plan, any_cls, all_cls):
    """Run ``plan``; report how and when each condition settled (in
    settle order) and what is still subscribed to each base event."""
    fires, conditions = plan
    env = Environment()
    events = [Event(env) for _ in fires]
    built = {}
    settled = []

    def firer(i, at, fails):
        yield env.timeout(at)
        if fails:
            events[i].fail(KeyError(i))
        else:
            events[i].succeed(i)

    def builder(k, at, is_any, operands):
        yield env.timeout(at)
        cond = built[k] = (any_cls if is_any else all_cls)(
            env, [events[j % len(events)] for j in operands])
        cond.callbacks.append(lambda e: settled.append((
            k, env.now, e.ok,
            sorted(events.index(x) for x in e.value) if e.ok
            else repr(e.value))))

    for i, (at, fails) in enumerate(fires):
        if at is not None:
            env.process(firer(i, at, fails))
    for k, (at, is_any, operands) in enumerate(conditions):
        env.process(builder(k, at, is_any, operands))
    env.run()
    return settled, built, events


@given(plan=_PLAN)
@settings(max_examples=200, deadline=None)
def test_detaching_conditions_settle_like_the_leaky_reference(plan):
    got, built, events = _settlements(plan, AnyOf, AllOf)
    want, _, ref_events = _settlements(plan, LeakyAnyOf, LeakyAllOf)
    assert got == want
    for event, ref_event in zip(events, ref_events):
        if event.callbacks is None:
            assert ref_event.callbacks is None
            continue
        # what stays subscribed is exactly the unsettled conditions
        # (once per listing); the reference holds at least as many
        live = [c._check for c in built.values() if not c.triggered
                for operand in c._events if operand is event]
        assert sorted(map(id, (cb.__self__ for cb in event.callbacks))) \
            == sorted(map(id, (cb.__self__ for cb in live)))
        assert len(event.callbacks) <= len(ref_event.callbacks)


def test_reference_model_really_leaks():
    """Mutation check for the property above: the reference differs
    from the kernel exactly where the kernel detaches."""
    env = Environment()
    long_lived = env.event()
    env.run(LeakyAnyOf(env, [env.timeout(1.0), long_lived]))
    assert len(long_lived.callbacks) == 1
