"""Tests for Compute-Unit submission, execution and failure handling."""

import pytest

from repro.api import (
    AgentConfig,
    ComputePilotDescription,
    ComputeUnitDescription,
    PilotState,
    UnitState,
)


def fast_agent(**kw):
    defaults = dict(bootstrap_seconds=2.0, db_connect_seconds=0.2,
                    db_poll_interval=0.2, spawn_overhead_seconds=0.1)
    defaults.update(kw)
    return AgentConfig(**defaults)


def active_pilot(env, pmgr, umgr, nodes=2, **agent_kw):
    pilot = pmgr.submit_pilot(ComputePilotDescription(
        resource="slurm://stampede", nodes=nodes, runtime=600,
        agent_config=fast_agent(**agent_kw)))
    umgr.add_pilots(pilot)
    env.run(pilot.wait(PilotState.ACTIVE))
    return pilot


def test_unit_done_with_result(stack):
    env, registry, session, pmgr, umgr = stack
    active_pilot(env, pmgr, umgr)
    units = umgr.submit_units(ComputeUnitDescription(
        cores=1, cpu_seconds=5.0, function=lambda a, b: a + b,
        args=(20, 22)))
    env.run(umgr.wait_units(units))
    unit = units[0]
    assert unit.state is UnitState.DONE
    assert unit.result == 42
    assert unit.exit_code == 0


def test_unit_state_sequence(stack):
    env, registry, session, pmgr, umgr = stack
    active_pilot(env, pmgr, umgr)
    units = umgr.submit_units(ComputeUnitDescription(cores=1,
                                                     cpu_seconds=1.0))
    env.run(umgr.wait_units(units))
    states = [s for _, s in units[0].history]
    assert states == [
        UnitState.NEW, UnitState.UMGR_SCHEDULING,
        UnitState.AGENT_STAGING_INPUT, UnitState.AGENT_SCHEDULING,
        UnitState.EXECUTING, UnitState.AGENT_STAGING_OUTPUT,
        UnitState.DONE]


def test_unit_cpu_seconds_scale_runtime(stack):
    env, registry, session, pmgr, umgr = stack
    active_pilot(env, pmgr, umgr)
    fast, slow = umgr.submit_units([
        ComputeUnitDescription(cores=1, cpu_seconds=1.0),
        ComputeUnitDescription(cores=1, cpu_seconds=300.0)])
    env.run(umgr.wait_units([fast, slow]))
    dur = lambda u: (u.timestamp(UnitState.AGENT_STAGING_OUTPUT)
                     - u.timestamp(UnitState.EXECUTING))
    assert dur(slow) > dur(fast) + 250


def test_multicore_unit_speedup(stack):
    env, registry, session, pmgr, umgr = stack
    active_pilot(env, pmgr, umgr)
    one, sixteen = umgr.submit_units([
        ComputeUnitDescription(cores=1, cpu_seconds=160.0),
        ComputeUnitDescription(cores=16, cpu_seconds=160.0)])
    env.run(umgr.wait_units([one, sixteen]))
    dur = lambda u: (u.timestamp(UnitState.AGENT_STAGING_OUTPUT)
                     - u.timestamp(UnitState.EXECUTING))
    assert dur(sixteen) < dur(one) / 8


def test_units_queue_beyond_capacity(stack):
    env, registry, session, pmgr, umgr = stack
    active_pilot(env, pmgr, umgr, nodes=1)  # 16 cores
    units = umgr.submit_units([
        ComputeUnitDescription(cores=8, cpu_seconds=80.0)  # 10s each
        for _ in range(4)])  # 32 cores wanted, 16 available
    env.run(umgr.wait_units(units))
    assert all(u.state is UnitState.DONE for u in units)
    # at most 2 executed concurrently: the third unit waits a wave
    starts = sorted(u.timestamp(UnitState.EXECUTING) for u in units)
    assert starts[2] > starts[0] + 5.0


def test_failing_function_marks_unit_failed(stack):
    env, registry, session, pmgr, umgr = stack
    active_pilot(env, pmgr, umgr)

    def boom():
        raise ValueError("numerical disaster")

    units = umgr.submit_units(ComputeUnitDescription(
        cores=1, function=boom))
    env.run(umgr.wait_units(units))
    assert units[0].state is UnitState.FAILED
    assert "numerical disaster" in units[0].stderr
    assert units[0].exit_code == 1


def test_agent_survives_unit_failure(stack):
    env, registry, session, pmgr, umgr = stack
    active_pilot(env, pmgr, umgr)

    def boom():
        raise RuntimeError("x")

    bad = umgr.submit_units(ComputeUnitDescription(cores=1, function=boom))
    env.run(umgr.wait_units(bad))
    good = umgr.submit_units(ComputeUnitDescription(
        cores=1, function=lambda: "fine"))
    env.run(umgr.wait_units(good))
    assert good[0].state is UnitState.DONE
    assert good[0].result == "fine"


def test_missing_stage_in_fails_unit(stack):
    env, registry, session, pmgr, umgr = stack
    active_pilot(env, pmgr, umgr)
    units = umgr.submit_units(ComputeUnitDescription(
        cores=1, input_staging=(("/scratch/missing.dat", 1000),)))
    env.run(umgr.wait_units(units))
    assert units[0].state is UnitState.FAILED
    assert "stage-in missing" in units[0].stderr


def test_stage_in_and_out_roundtrip(stack):
    env, registry, session, pmgr, umgr = stack
    site = registry.lookup("stampede")
    env.run(site.scratch.create("/scratch/input.dat", 5e6))
    active_pilot(env, pmgr, umgr)
    units = umgr.submit_units(ComputeUnitDescription(
        cores=1,
        input_staging=(("/scratch/input.dat", 5e6),),
        output_staging=(("/scratch/output.dat", 2e6),)))
    env.run(umgr.wait_units(units))
    assert units[0].state is UnitState.DONE
    assert site.scratch.exists("/scratch/output.dat")
    assert site.scratch.size("/scratch/output.dat") == 2e6


def test_submit_before_pilot_rejected(stack):
    env, registry, session, pmgr, umgr = stack
    with pytest.raises(RuntimeError, match="add_pilots"):
        umgr.submit_units(ComputeUnitDescription(cores=1))


def test_unit_validation(stack):
    env, registry, session, pmgr, umgr = stack
    active_pilot(env, pmgr, umgr)
    with pytest.raises(ValueError):
        umgr.submit_units(ComputeUnitDescription(cores=0))
    with pytest.raises(ValueError):
        umgr.submit_units(ComputeUnitDescription(cpu_seconds=-1))


def test_cancel_pending_units(stack):
    env, registry, session, pmgr, umgr = stack
    # pilot that never becomes active within the test horizon
    pilot = pmgr.submit_pilot(ComputePilotDescription(
        resource="slurm://stampede", nodes=1, runtime=600,
        agent_config=fast_agent(bootstrap_seconds=1e5)))
    umgr.add_pilots(pilot)
    units = umgr.submit_units([ComputeUnitDescription(cores=1)])

    def driver():
        yield env.timeout(1.0)
        umgr.cancel_units(units)
        yield umgr.wait_units(units)

    env.run(env.process(driver()))
    assert units[0].state is UnitState.CANCELED


def test_pilot_teardown_cancels_inflight_units(stack):
    env, registry, session, pmgr, umgr = stack
    pilot = active_pilot(env, pmgr, umgr)
    units = umgr.submit_units([ComputeUnitDescription(
        cores=1, cpu_seconds=1e6)])

    def driver():
        yield units[0].wait(UnitState.EXECUTING)
        pmgr.cancel_pilot(pilot.uid)
        yield umgr.wait_units(units)

    env.run(env.process(driver()))
    assert units[0].state is UnitState.CANCELED


def test_round_robin_spreads_units(stack):
    env, registry, session, pmgr, umgr = stack
    a = active_pilot(env, pmgr, umgr)
    b = pmgr.submit_pilot(ComputePilotDescription(
        resource="slurm://wrangler", nodes=1, runtime=600,
        agent_config=fast_agent()))
    umgr.add_pilots(b)
    env.run(b.wait(PilotState.ACTIVE))
    units = umgr.submit_units([ComputeUnitDescription(cores=1)
                               for _ in range(4)])
    assigned = {u.pilot_uid for u in units}
    assert assigned == {a.uid, b.uid}
    env.run(umgr.wait_units(units))
    assert all(u.state is UnitState.DONE for u in units)


def test_unit_startup_time_metric(stack):
    env, registry, session, pmgr, umgr = stack
    active_pilot(env, pmgr, umgr)
    units = umgr.submit_units(ComputeUnitDescription(cores=1,
                                                     cpu_seconds=1.0))
    env.run(umgr.wait_units(units))
    startup = units[0].startup_time
    # poll interval + spawn overhead; small but strictly positive
    assert 0.0 < startup < 5.0


def test_closing_fork_execution_mid_compute_releases_memory():
    """A fork pipeline closed mid-execution (torn down or collected)
    returns the unit's memory without suspending — a generator that
    yields while closing raises "generator ignored GeneratorExit"."""
    from types import SimpleNamespace

    from repro.cluster import Machine, stampede
    from repro.core.agent.executor import ForkBackend
    from repro.sim import Environment

    env = Environment()
    machine = Machine(env, stampede(num_nodes=1))
    lrm = SimpleNamespace(nodes=machine.nodes,
                          site=SimpleNamespace(machine=machine))
    backend = ForkBackend(env, lrm, fast_agent())
    desc = ComputeUnitDescription(cores=1, cpu_seconds=50.0,
                                  memory_mb=1024)
    node = machine.nodes[0]
    full = node.memory.level

    def pipeline():
        allocation = yield backend.schedule(desc)
        yield from backend.execute(desc, allocation)

    running = pipeline()
    env.process(running)
    env.run(until=10.0)          # spawned, memory held, mid-compute
    assert node.memory.level == full - 1024 * 1024 ** 2
    running.close()              # must not suspend while closing
    assert node.memory.level == full
