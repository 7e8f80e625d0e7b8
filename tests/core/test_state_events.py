"""State events on the unit/pilot handles exist only on demand.

Parametrised over both handles: they share one implementation
(:class:`repro.core.states.StateHandle`), and these tests are what
keeps it that way.
"""

import pytest

from repro.analysis.sanitizer import InvariantViolation, SimSanitizer
from repro.api import ComputePilotDescription, ComputeUnitDescription
from repro.core.pilot import ComputePilot
from repro.core.states import PilotState, StateHandle, UnitState
from repro.core.unit import ComputeUnit
from repro.sim import Environment


def _unit(env):
    return ComputeUnit(env, "unit.000000", ComputeUnitDescription())


def _pilot(env):
    return ComputePilot(env, "pilot.0000", ComputePilotDescription(
        resource="slurm://stampede"))


#: (factory, legal path from the initial state to a final one)
HANDLES = [
    pytest.param(_unit, [UnitState.UMGR_SCHEDULING,
                         UnitState.AGENT_STAGING_INPUT,
                         UnitState.AGENT_SCHEDULING, UnitState.EXECUTING,
                         UnitState.AGENT_STAGING_OUTPUT, UnitState.DONE],
                 id="unit"),
    pytest.param(_pilot, [PilotState.PENDING_LAUNCH, PilotState.LAUNCHING,
                          PilotState.PENDING_ACTIVE, PilotState.ACTIVE,
                          PilotState.DONE],
                 id="pilot"),
]


def _drive(env, handle, path, step=1.0):
    """Advance ``handle`` along ``path``, one state every ``step`` s."""
    def driver():
        for state in path:
            yield env.timeout(step)
            handle.advance(state)
    return env.process(driver())


@pytest.mark.parametrize("make,path", HANDLES)
def test_both_handles_share_the_one_implementation(make, path):
    cls = type(make(Environment()))
    assert issubclass(cls, StateHandle)
    for name in ("advance", "wait", "timestamp"):
        assert name not in vars(cls)


@pytest.mark.parametrize("make,path", HANDLES)
def test_unobserved_handle_schedules_nothing(make, path):
    env = Environment()
    handle = make(env)
    seq_before = env.snapshot_state()["seq"]
    for state in path:
        handle.advance(state)
    assert handle._state_events is None and handle._final_event is None
    assert env.snapshot_state()["seq"] == seq_before
    assert [s for _, s in handle.history][1:] == path


@pytest.mark.parametrize("make,path", HANDLES)
def test_final_wait_after_final_fires_at_once_with_handle(make, path):
    env = Environment()
    handle = make(env)
    _drive(env, handle, path)
    env.run()
    seq_before = env.snapshot_state()["seq"]
    late = handle.wait()
    assert late.triggered and not late.processed
    assert env.snapshot_state()["seq"] == seq_before + 1
    assert handle.wait() is late
    assert env.run(late) is handle
    assert env.now == float(len(path))


@pytest.mark.parametrize("make,path", HANDLES)
def test_wait_before_state_fires_at_entry_time_with_handle(make, path):
    env = Environment()
    handle = make(env)
    target = path[2]
    event = handle.wait(target)
    assert not event.triggered
    _drive(env, handle, path)
    assert env.run(event) is handle
    assert env.now == 3.0 == handle.timestamp(target)


@pytest.mark.parametrize("make,path", HANDLES)
def test_wait_after_state_resumes_without_advancing_the_clock(make, path):
    env = Environment()
    handle = make(env)
    _drive(env, handle, path)
    env.run(until=4.5)
    reached, seen = path[1], []

    def waiter():
        got = yield handle.wait(reached)
        seen.append((env.now, got))

    env.process(waiter())
    env.run(until=4.5)
    assert seen == [(4.5, handle)]
    # env.run(until=event) and the composites see it the same way
    assert env.run(handle.wait(path[0])) is handle
    assert env.now == 4.5
    both = env.all_of([handle.wait(path[0]), handle.wait(path[2])])
    assert set(env.run(both).values()) == {handle}
    either = env.any_of([handle.wait(path[-1]), handle.wait(path[3])])
    assert env.run(either) == {handle.wait(path[3]): handle}
    assert env.now == 4.5


@pytest.mark.parametrize("make,path", HANDLES)
def test_initial_state_counts_as_reached(make, path):
    env = Environment()
    handle = make(env)
    assert env.run(handle.wait(handle.state)) is handle
    assert env.now == 0.0


@pytest.mark.parametrize("make,path", HANDLES)
def test_wait_between_advance_and_next_dispatch_resumes_same_time(
        make, path):
    env = Environment()
    handle = make(env)
    seen = []

    def waiter(event):
        yield event
        seen.append(env.now)

    def driver():
        yield env.timeout(2.0)
        handle.advance(path[0])
        # same step: the state is in history, nothing dispatched since
        env.process(waiter(handle.wait(path[0])))
        yield env.timeout(1.0)
        seen.append("next")

    env.process(driver())
    env.run()
    assert seen == [2.0, "next"]


@pytest.mark.parametrize("make,path", HANDLES)
def test_two_waits_return_the_same_event(make, path):
    env = Environment()
    handle = make(env)
    pending = handle.wait(path[1])
    assert handle.wait(path[1]) is pending
    _drive(env, handle, path)
    env.run()
    assert handle.wait(path[1]) is pending and pending.processed
    late = handle.wait(path[3])
    assert handle.wait(path[3]) is late
    assert handle.wait() is handle.wait()


@pytest.mark.parametrize("make,path", HANDLES)
def test_state_never_reached_stays_pending_and_leaks_its_waiter(
        make, path):
    env = Environment()
    sanitizer = SimSanitizer.install(env)
    handle = make(env)
    failed = type(path[0]).FAILED

    def waiter():
        yield handle.wait(failed)

    env.process(waiter(), name="waits-for-failed")
    _drive(env, handle, path)
    env.run()
    assert not handle.wait(failed).triggered
    with pytest.raises(InvariantViolation, match="waits-for-failed"):
        sanitizer.assert_drained()


@pytest.mark.parametrize("make,path", HANDLES)
def test_final_wait_is_eager_and_fires_once(make, path):
    env = Environment()
    handle = make(env)
    assert handle._final_event is None
    final = handle.wait()
    assert final is handle._final_event and not final.triggered
    fired = []
    final.callbacks.append(fired.append)
    _drive(env, handle, path)
    assert env.run(final) is handle
    assert env.now == float(len(path))
    assert handle.state.is_final
    env.run()
    assert fired == [final] and handle.wait() is final
    # the per-state event of the final state is separate and on demand
    assert handle.wait(path[-1]) is not final
    assert env.run(handle.wait(path[-1])) is handle


@pytest.mark.parametrize("make,path", HANDLES)
def test_illegal_transition_still_rejected(make, path):
    env = Environment()
    handle = make(env)
    handle.wait(path[-1])
    with pytest.raises(ValueError, match="illegal transition"):
        handle.advance(path[2])
    assert handle.state is handle.history[0][1]
    assert len(handle.history) == 1
