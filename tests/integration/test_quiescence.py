"""Idle costs the same at any scale, and nothing once pilots end.

Once the last pilot is final, nothing is left to schedule but the
teardown the pilot already started (agent and cluster shutdown, the
batch job's epilog and its walltime timer).  That tail is a fixed
number of events: it does not grow with the simulated time that
remains until the batch job's walltime would have expired, and
``env.run()`` returns.  While a pilot is ACTIVE and idle, it pays the
same events per simulated second whatever its size.
"""

import math

import pytest

from repro.api import ComputeUnitDescription, TaskDescription
from repro.experiments.calibration import agent_config
from repro.experiments.harness import Testbed
from tests.integration.test_event_ledger import idle_events

#: Upper bound on the events a world dispatches after its last pilot
#: is final (measured: 9 fork, 11 Mode I YARN with or without AM
#: re-use, 11 raptor).
TAIL_BUDGET = 40


def _finish_and_cancel(flavor, runtime):
    """Run a little work on one pilot, then cancel it; the env and the
    step count at the moment the pilot turned final."""
    testbed = Testbed("stampede", num_nodes=2, seed=7)
    lrm = "yarn" if flavor.startswith("yarn") else "fork"
    pilot, _, _ = testbed.start_pilot(
        nodes=2, runtime=runtime, agent_config=agent_config(
            lrm, reuse_application_master=flavor == "yarn-reuse"))
    env = testbed.env
    if flavor == "raptor":
        overlay = testbed.session.raptor(pilot, workers=2)
        env.run(overlay.ready())
        futures = overlay.submit_tasks([TaskDescription(cpu_seconds=1.0)] * 8)
        env.run(overlay.wait(futures))
        assert all(f.result().ok for f in futures)
        env.run(overlay.close())
    else:
        units = testbed.umgr.submit_units(
            [ComputeUnitDescription(cores=1, cpu_seconds=5.0)] * 4)
        env.run(testbed.umgr.wait_units(units))
    testbed.pmgr.cancel_pilot(pilot.uid)
    env.run(pilot.wait())
    assert pilot.state.is_final
    return env, env.steps


def _tail(flavor, runtime):
    """Events dispatched after the pilot turned final, up to an empty
    queue; fails (instead of running forever) past the budget."""
    env, final = _finish_and_cancel(flavor, runtime)
    while env.peek() != math.inf:
        assert env.steps - final < TAIL_BUDGET, (
            f"{flavor}: the world is still busy {TAIL_BUDGET} events after "
            f"its last pilot ended (now={env.now})")
        env.step()
    env.run()                              # returns: nothing is left
    return env.steps - final


@pytest.mark.parametrize("flavor", ["fork", "yarn", "yarn-reuse", "raptor"])
def test_world_quiesces_after_its_pilots_end(flavor):
    hour, day = _tail(flavor, runtime=60), _tail(flavor, runtime=24 * 60)
    assert hour == day <= TAIL_BUDGET


def test_idle_mode1_pilot_costs_the_same_at_any_size():
    """One RM tick drives every NodeManager that shares a heartbeat
    phase, so an idle Mode I pilot pays no event per node (one per node
    per second was 4.0 events/s at 2 nodes and 18.0 at 16)."""
    assert idle_events("yarn", 16) == idle_events("yarn", 2)
