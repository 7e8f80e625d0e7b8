"""Tests for the agent heartbeat + client-side heartbeat monitor."""

import pytest

from repro.api import (
    ComputePilotDescription,
    ComputeUnitDescription,
    PilotManager,
    PilotState,
    Session,
    UnitManager,
)
from repro.cluster import stampede
from repro.saga import Registry, Site
from repro.sim import Environment
from tests.core.test_units import fast_agent
from tests.conftest import FAST_RMS


def make_stack(hb_timeout=300.0, hb_check=30.0):
    env = Environment()
    registry = Registry()
    registry.register(Site(env, stampede(num_nodes=2),
                           rms_config=FAST_RMS))
    session = Session(env, registry)
    pmgr = PilotManager(session, heartbeat_timeout=hb_timeout,
                        heartbeat_check_interval=hb_check)
    return env, session, pmgr, UnitManager(session)


def test_heartbeats_advance_while_active():
    env, session, pmgr, umgr = make_stack()
    pilot = pmgr.submit_pilot(ComputePilotDescription(
        resource="slurm://stampede", nodes=1, runtime=600,
        agent_config=fast_agent(db_poll_interval=1.0)))
    env.run(pilot.wait(PilotState.ACTIVE))
    env.run(until=env.now + 10.0)
    first = pmgr.last_heartbeat(pilot.uid)
    assert first is not None
    env.run(until=env.now + 10.0)
    assert pmgr.last_heartbeat(pilot.uid) > first


def test_healthy_pilot_not_flagged():
    env, session, pmgr, umgr = make_stack(hb_timeout=20.0, hb_check=5.0)
    pilot = pmgr.submit_pilot(ComputePilotDescription(
        resource="slurm://stampede", nodes=1, runtime=600,
        agent_config=fast_agent(db_poll_interval=1.0)))
    env.run(pilot.wait(PilotState.ACTIVE))
    env.run(until=env.now + 100.0)
    assert pilot.state is PilotState.ACTIVE


def test_hung_agent_detected_and_pilot_failed():
    env, session, pmgr, umgr = make_stack(hb_timeout=20.0, hb_check=5.0)
    # a poll interval far beyond the timeout models a hung agent: it
    # goes ACTIVE, heartbeats once, then never returns to the loop
    pilot = pmgr.submit_pilot(ComputePilotDescription(
        resource="slurm://stampede", nodes=1, runtime=600,
        agent_config=fast_agent(db_poll_interval=1e6)))
    env.run(pilot.wait(PilotState.ACTIVE))
    env.run(pilot.wait())
    assert pilot.state is PilotState.FAILED


def test_idle_monitor_schedules_no_polling_events():
    """With no ACTIVE pilot the monitor parks on a wake event instead
    of polling, so an idle PilotManager adds ~zero events on top of the
    site's own background load (the old fixed-interval loop added one
    timeout per check interval — 200 over this horizon)."""

    def idle_events(with_pmgr):
        env = Environment()
        registry = Registry()
        registry.register(Site(env, stampede(num_nodes=2),
                               rms_config=FAST_RMS))
        session = Session(env, registry)
        if with_pmgr:
            PilotManager(session, heartbeat_timeout=20.0,
                         heartbeat_check_interval=5.0)
        before = env._seq
        env.run(until=1000.0)
        return env._seq - before

    assert idle_events(True) - idle_events(False) < 10


def test_monitor_wakes_and_stays_phase_aligned():
    """Resuming from the park keeps checks on the k * interval grid, so
    detection instants (and digests) match the always-polling loop."""
    env, session, pmgr, umgr = make_stack(hb_timeout=20.0, hb_check=5.0)
    env.run(until=12.3)  # park through an odd offset first
    pilot = pmgr.submit_pilot(ComputePilotDescription(
        resource="slurm://stampede", nodes=1, runtime=600,
        agent_config=fast_agent(db_poll_interval=1e6)))
    env.run(pilot.wait(PilotState.ACTIVE))
    env.run(pilot.wait())
    assert pilot.state is PilotState.FAILED
    # the failure is recorded at a heartbeat-check instant
    assert env.now % 5.0 == pytest.approx(0.0, abs=1e-9)


def test_units_on_hung_pilot_stay_unclaimed():
    env, session, pmgr, umgr = make_stack(hb_timeout=20.0, hb_check=5.0)
    pilot = pmgr.submit_pilot(ComputePilotDescription(
        resource="slurm://stampede", nodes=1, runtime=600,
        agent_config=fast_agent(db_poll_interval=1e6)))
    umgr.add_pilots(pilot)
    env.run(pilot.wait(PilotState.ACTIVE))
    units = umgr.submit_units([ComputeUnitDescription(cores=1)])
    env.run(pilot.wait())
    assert pilot.state is PilotState.FAILED
    # the unit was never executed; clients can cancel and resubmit
    assert not units[0].state.is_final
    umgr.cancel_units(units)
    env.run(umgr.wait_units(units))
    assert units[0].state.value == "Canceled"
