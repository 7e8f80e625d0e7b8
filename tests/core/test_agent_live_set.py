"""The agent tracks *live* unit pipelines only.

``Agent._unit_procs`` is what the telemetry heartbeat counts and what
teardown interrupts; a finished pipeline removes itself, so neither
grows with the number of units the pilot has ever run.
"""

from repro import telemetry
from repro.api import ComputeUnitDescription, PilotState, UnitState
from tests.core.test_units import active_pilot

FINAL = {s.value for s in UnitState if s.is_final}


def _heartbeats(tel):
    return [e for e in tel.bus.events
            if e.category == "agent" and e.name == "heartbeat"]


def test_heartbeat_in_flight_matches_a_full_scan(stack):
    """Reference = the pre-live-set definition: claimed units whose
    pipeline has not reached a final state, found by scanning them all."""
    env, registry, session, pmgr, umgr = stack
    tel = telemetry.install(env)
    pilot = active_pilot(env, pmgr, umgr)
    agent = pmgr.agents[pilot.uid]
    units_db = session.db.collection("units")
    # A heartbeat follows the claim pass, so by then the agent has
    # claimed every unit submitted so far.
    scanned = []
    tel.bus.subscribe(
        lambda e: scanned.append(sum(
            1 for uid in umgr.units
            if units_db.get(uid)["state"] not in FINAL)),
        categories=["agent"], names=["heartbeat"])
    cores = agent.lrm.total_cores
    units = umgr.submit_units(
        [ComputeUnitDescription(cores=1, cpu_seconds=1.5)] * (5 * cores))
    env.run(umgr.wait_units(units))
    env.run(until=env.now + 1.0)          # one more heartbeat, now idle
    beats = _heartbeats(tel)
    reported = [e.payload["in_flight"] for e in beats]
    idle = len(reported) - len(scanned)      # beats before subscribing
    assert reported[:idle] == [0] * idle and reported[idle:] == scanned
    assert max(reported) > cores and reported[-1] == 0
    assert [e.payload["claimed"] for e in beats][-1] == 5 * cores
    gauge = tel.gauge("agent.inflight_units", pilot=pilot.uid)
    assert [v for _, v in gauge.samples] == [float(n) for n in reported]


def test_live_set_does_not_grow_with_finished_units(stack):
    env, registry, session, pmgr, umgr = stack
    pilot = active_pilot(env, pmgr, umgr)
    agent = pmgr.agents[pilot.uid]
    cores = agent.lrm.total_cores
    for _wave in range(5):
        units = umgr.submit_units(
            [ComputeUnitDescription(cores=1, cpu_seconds=0.5)] * cores)
        env.run(umgr.wait_units(units))
        assert len(agent._unit_procs) == 0
    assert agent._claims == 5 * cores
    # mid-wave the set holds exactly the pipelines still running
    units = umgr.submit_units(
        [ComputeUnitDescription(cores=1, cpu_seconds=30.0)] * cores)
    env.run(units[0].wait(UnitState.EXECUTING))
    assert 0 < len(agent._unit_procs) <= cores
    assert set(agent._unit_procs) == {u.uid for u in units}
    assert all(p.is_alive for p in agent._unit_procs.values())
    env.run(umgr.wait_units(units))
    assert agent._unit_procs == {}


def test_teardown_interrupts_the_live_pipelines_only(stack):
    env, registry, session, pmgr, umgr = stack
    pilot = active_pilot(env, pmgr, umgr)
    agent = pmgr.agents[pilot.uid]
    finished = umgr.submit_units(
        [ComputeUnitDescription(cores=1, cpu_seconds=0.5)] * 6)
    env.run(umgr.wait_units(finished))
    running = umgr.submit_units(
        [ComputeUnitDescription(cores=1, cpu_seconds=500.0)] * 3)
    env.run(running[-1].wait(UnitState.EXECUTING))
    assert list(agent._unit_procs) == [u.uid for u in running]
    pmgr.cancel_pilot(pilot.uid)
    env.run(pilot.wait())
    env.run(umgr.wait_units(running))
    assert pilot.state is PilotState.CANCELED
    assert [u.state for u in finished] == [UnitState.DONE] * 6
    assert [u.state for u in running] == [UnitState.CANCELED] * 3
    assert agent._unit_procs == {}
