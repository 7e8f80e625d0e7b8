"""Pilots end-to-end over every batch-system dialect (SLURM/Torque/SGE).

The LRM discovers its allocation from whatever the RMS exports
(SLURM_NODELIST vs PBS_NODEFILE vs PE_HOSTFILE); these tests drive the
full pilot lifecycle over each dialect, including a Mode I Hadoop
bootstrap on Torque — the paper names "PBS, SLURM or SGE" as the
schedulers SAGA-Hadoop and RADICAL-Pilot support.
"""

import pytest

from repro.cluster import stampede
from repro.api import (
    AgentConfig,
    ComputePilotDescription,
    ComputeUnitDescription,
    PilotManager,
    PilotState,
    Session,
    UnitManager,
    UnitState,
)
from repro.hadoop_deploy import SagaHadoop
from repro.saga import Registry, Site
from repro.sim import Environment
from tests.conftest import FAST_RMS


def fast_agent(**kw):
    defaults = dict(bootstrap_seconds=2.0, db_connect_seconds=0.2,
                    db_poll_interval=0.2, spawn_overhead_seconds=0.1)
    defaults.update(kw)
    return AgentConfig(**defaults)


def make_site(rms_kind, hostname):
    env = Environment()
    registry = Registry()
    registry.register(Site(env, stampede(num_nodes=2), rms_kind=rms_kind,
                           rms_config=FAST_RMS, hostname=hostname))
    session = Session(env, registry)
    return env, registry, session, PilotManager(session), \
        UnitManager(session)


@pytest.mark.parametrize("rms_kind,scheme", [
    ("slurm", "slurm"),
    ("torque", "torque"),
    ("torque", "pbs"),
    ("sge", "sge"),
])
def test_pilot_end_to_end_on_each_rms(rms_kind, scheme):
    env, registry, session, pmgr, umgr = make_site(rms_kind, "machine")
    pilot = pmgr.submit_pilot(ComputePilotDescription(
        resource=f"{scheme}://machine", nodes=2, runtime=600,
        agent_config=fast_agent()))
    umgr.add_pilots(pilot)
    env.run(pilot.wait(PilotState.ACTIVE))
    # the LRM parsed this dialect's environment correctly
    assert pilot.agent_info["cores"] == 32
    assert len(pilot.agent_info["nodes"]) == 2
    units = umgr.submit_units([ComputeUnitDescription(
        cores=1, cpu_seconds=2.0, function=lambda: rms_kind)
        for _ in range(3)])
    env.run(umgr.wait_units(units))
    assert all(u.state is UnitState.DONE for u in units)
    assert units[0].result == rms_kind


def test_mode1_hadoop_on_torque():
    env, registry, session, pmgr, umgr = make_site("torque", "cluster")
    pilot = pmgr.submit_pilot(ComputePilotDescription(
        resource="pbs://cluster", nodes=2, runtime=600,
        agent_config=fast_agent(lrm="yarn")))
    umgr.add_pilots(pilot)
    env.run(pilot.wait(PilotState.ACTIVE))
    assert pilot.agent_info["lrm"] == "yarn"
    units = umgr.submit_units([ComputeUnitDescription(
        cores=1, cpu_seconds=2.0)])
    env.run(umgr.wait_units(units))
    assert units[0].state is UnitState.DONE


def test_saga_hadoop_on_sge():
    env = Environment()
    registry = Registry()
    registry.register(Site(env, stampede(num_nodes=2), rms_kind="sge",
                           rms_config=FAST_RMS, hostname="gridengine"))
    tool = SagaHadoop(env, registry, "sge://gridengine",
                      framework="yarn", nodes=2)

    def driver():
        yield from tool.start()
        metrics = tool.yarn.resource_manager.cluster_metrics()
        assert metrics["activeNodes"] == 2
        tool.stop()
        yield tool.stopped

    env.run(env.process(driver()))
