"""The event ledger: what one item and one idle second cost, in events.

Engine events (``env.steps``) are the simulator's unit of work.  Each
row below pins an absolute count on a fixed, seeded world:

====================  ======  ===============================================
row                   events  measured as
====================  ======  ===============================================
``fork-unit``          1,662  200 more 0.5 s units on a warm 2-node fork
                              pilot (8.31 per unit, the longer makespan's
                              agent polls included)
``mode1-unit``            68  4 more units on a warm 2-node Mode I pilot,
                              counted to a fixed 120 s horizon so periodic
                              events cancel (17 per unit)
``raptor-task``        1,200  200 more 0.01 s tasks through a saturated
                              raptor overlay (6 per task)
``idle-fork``          1,220  600 idle s of an ACTIVE 2-node fork pilot
                              (2.03 per s: the agent's DB poll, the
                              PilotManager's wake on each heartbeat write
                              and its 30 s heartbeat check)
``idle-mode1-2``       1,820  600 idle s of an ACTIVE 2-node Mode I pilot
                              (3.03 per s: one RM heartbeat tick more)
``idle-mode1-16``      1,820  the same at 16 nodes: one tick drives every
                              NodeManager that shares a heartbeat phase
====================  ======  ===============================================

A row that moves names the layer that changed its cost; re-pin it with
the reason.
"""

import functools

import pytest

from repro.api import ComputeUnitDescription, TaskDescription
from repro.experiments.calibration import agent_config
from repro.experiments.harness import Testbed
from tests.core.test_leak_guards import _world
from tests.raptor.test_inline_dispatch import _overlay
from tests.yarn.test_container_process import _mode1


def _fork_steps(n):
    env, session, pmgr, umgr, pilot = _world()
    before = env.steps
    units = umgr.submit_units(
        [ComputeUnitDescription(cores=1, cpu_seconds=0.5)] * n)
    env.run(umgr.wait_units(units))
    return env.steps - before


def _mode1_steps(n):
    steps, *_ = _mode1(n, horizon=120.0)
    return steps


def _stream_steps(n):
    """No periodic event falls inside the sub-second stream: the agent
    of :func:`_overlay` polls every 50 s."""
    env, _, overlay = _overlay()
    before = env.steps
    overlay.submit_tasks([TaskDescription(cpu_seconds=0.01)] * n,
                         futures=False)
    env.run(overlay.wait())
    assert overlay.stats()["tasks_completed"] == n
    return env.steps - before


@functools.cache
def idle_events(lrm, nodes, seconds=600.0):
    """Events an ACTIVE ``nodes``-node pilot dispatches over ``seconds``
    of simulated time after its first small bag is done."""
    testbed = Testbed("stampede", num_nodes=nodes, seed=7)
    testbed.start_pilot(nodes=nodes, agent_config=agent_config(lrm))
    env = testbed.env
    units = testbed.umgr.submit_units(
        [ComputeUnitDescription(cores=1, cpu_seconds=5.0)] * 4)
    env.run(testbed.umgr.wait_units(units))
    before = env.steps
    env.run(until=env.now + seconds)
    return env.steps - before


LEDGER = {
    "fork-unit": (lambda: _fork_steps(400) - _fork_steps(200), 1662),
    "mode1-unit": (lambda: _mode1_steps(8) - _mode1_steps(4), 68),
    "raptor-task": (lambda: _stream_steps(400) - _stream_steps(200), 1200),
    "idle-fork": (lambda: idle_events("fork", 2), 1220),
    "idle-mode1-2": (lambda: idle_events("yarn", 2), 1820),
    "idle-mode1-16": (lambda: idle_events("yarn", 16), 1820),
}


@pytest.mark.parametrize("row", list(LEDGER))
def test_event_ledger(row):
    measure, events = LEDGER[row]
    assert measure() == events
