"""A world whose pilots have ended drains its event queue.

Once the last pilot is final, nothing is left to schedule but the
teardown the pilot already started (agent and cluster shutdown, the
batch job's epilog and its walltime timer).  That tail is a fixed
number of events: it does not grow with the simulated time that
remains until the batch job's walltime would have expired, and
``env.run()`` returns.
"""

import math

import pytest

from repro.api import ComputeUnitDescription, TaskDescription
from repro.experiments.calibration import agent_config
from repro.experiments.harness import Testbed

#: Upper bound on the events a world dispatches after its last pilot
#: is final (measured: 9 fork, 13 Mode I YARN, 11 raptor).
TAIL_BUDGET = 40


def _finish_and_cancel(flavor, runtime):
    """Run a little work on one pilot, then cancel it; the env and the
    step count at the moment the pilot turned final."""
    testbed = Testbed("stampede", num_nodes=2, seed=7)
    lrm = "yarn" if flavor == "yarn" else "fork"
    pilot, _, _ = testbed.start_pilot(
        nodes=2, agent_config=agent_config(lrm), runtime=runtime)
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


@pytest.mark.parametrize("flavor", ["fork", "yarn", "raptor"])
def test_world_quiesces_after_its_pilots_end(flavor):
    hour, day = _tail(flavor, runtime=60), _tail(flavor, runtime=24 * 60)
    assert hour == day <= TAIL_BUDGET
