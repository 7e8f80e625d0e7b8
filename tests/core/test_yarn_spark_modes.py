"""Tests for the paper's extensions: YARN Mode I/II and Spark pilots.

PYTEST_DONT_REWRITE — assertion rewriting of this module trips a
CPython 3.11 ``ast`` recursion-guard bug (SystemError: AST constructor
recursion depth mismatch); plain asserts work fine.
"""

from repro.api import (
    AgentConfig,
    ComputePilotDescription,
    ComputeUnitDescription,
    PilotState,
    UnitState,
)
from repro.hadoop_deploy import provision_dedicated_hadoop


def fast_agent(**kw):
    defaults = dict(bootstrap_seconds=2.0, db_connect_seconds=0.2,
                    db_poll_interval=0.2, spawn_overhead_seconds=0.1)
    defaults.update(kw)
    return AgentConfig(**defaults)


def run_pilot_with_units(stack, resource, lrm, n_units=3, nodes=2,
                         unit_kw=None, agent_kw=None):
    env, registry, session, pmgr, umgr = stack
    pilot = pmgr.submit_pilot(ComputePilotDescription(
        resource=resource, nodes=nodes, runtime=600,
        agent_config=fast_agent(lrm=lrm, **(agent_kw or {}))))
    umgr.add_pilots(pilot)
    env.run(pilot.wait(PilotState.ACTIVE))
    units = umgr.submit_units([ComputeUnitDescription(
        cores=1, cpu_seconds=5.0, **(unit_kw or {}))
        for _ in range(n_units)])
    env.run(umgr.wait_units(units))
    return pilot, units


# ------------------------------------------------------------------ Mode I
def test_mode1_pilot_active_with_yarn(stack):
    env, registry, session, pmgr, umgr = stack
    pilot, units = run_pilot_with_units(stack, "slurm://stampede", "yarn")
    assert pilot.agent_info["lrm"] == "yarn"
    assert pilot.agent_info["lrm_setup_seconds"] > 20.0  # download+daemons
    assert all(u.state is UnitState.DONE for u in units)


def test_mode1_setup_slower_than_fork(stack):
    env, registry, session, pmgr, umgr = stack
    fork_pilot, _ = run_pilot_with_units(stack, "slurm://stampede", "fork",
                                         n_units=1)
    yarn_pilot, _ = run_pilot_with_units(stack, "slurm://wrangler", "yarn",
                                         n_units=1)
    fork_setup = (fork_pilot.timestamp(PilotState.ACTIVE)
                  - fork_pilot.timestamp(PilotState.PENDING_ACTIVE))
    yarn_setup = (yarn_pilot.timestamp(PilotState.ACTIVE)
                  - yarn_pilot.timestamp(PilotState.PENDING_ACTIVE))
    assert yarn_setup > fork_setup + 20.0


def test_mode1_unit_startup_dominated_by_two_phase_allocation(stack):
    pilot, units = run_pilot_with_units(stack, "slurm://stampede", "yarn",
                                        n_units=1)
    # client JVM + AM container + task container: tens of seconds
    assert units[0].startup_time > 15.0


def test_mode1_teardown_stops_daemons(stack):
    env, registry, session, pmgr, umgr = stack
    pilot, units = run_pilot_with_units(stack, "slurm://stampede", "yarn",
                                        n_units=1)
    pmgr.cancel_pilot(pilot.uid)
    env.run(pilot.wait())
    assert pilot.state is PilotState.CANCELED
    # the agent's private YARN/HDFS must be gone: node disks clean
    site = registry.lookup("stampede")
    for node in site.machine.nodes:
        assert node.local_disk.used == 0


def test_mode1_unit_failure_reported(stack):
    env, registry, session, pmgr, umgr = stack

    def boom():
        raise RuntimeError("container payload crash")

    pilot, units = run_pilot_with_units(
        stack, "slurm://stampede", "yarn", n_units=1,
        unit_kw={"function": boom})
    assert units[0].state is UnitState.FAILED
    assert "crash" in units[0].stderr


# ----------------------------------------------------------------- Mode II
def test_mode2_connects_to_dedicated_cluster(stack):
    env, registry, session, pmgr, umgr = stack
    site = registry.lookup("wrangler")
    env.run(env.process(provision_dedicated_hadoop(site)))
    pilot, units = run_pilot_with_units(stack, "slurm://wrangler",
                                        "yarn-connect", n_units=2,
                                        nodes=1)
    assert pilot.agent_info["lrm"] == "yarn-connect"
    assert pilot.agent_info["lrm_setup_seconds"] < 10.0
    assert all(u.state is UnitState.DONE for u in units)


def test_mode2_requires_dedicated_hadoop_machine(stack):
    env, registry, session, pmgr, umgr = stack
    # Stampede has no dedicated Hadoop: the agent bootstrap fails and
    # the pilot ends FAILED.
    pilot = stack[3].submit_pilot(ComputePilotDescription(
        resource="slurm://stampede", nodes=1, runtime=60,
        agent_config=fast_agent(lrm="yarn-connect")))
    env.run(pilot.wait())
    assert pilot.state is PilotState.FAILED


def test_mode2_requires_provisioned_cluster(stack):
    env, registry, session, pmgr, umgr = stack
    # Wrangler advertises Hadoop but nothing was provisioned.
    pilot = pmgr.submit_pilot(ComputePilotDescription(
        resource="slurm://wrangler", nodes=1, runtime=60,
        agent_config=fast_agent(lrm="yarn-connect")))
    env.run(pilot.wait())
    assert pilot.state is PilotState.FAILED


def test_mode2_faster_activation_than_mode1(stack):
    env, registry, session, pmgr, umgr = stack
    site = registry.lookup("wrangler")
    env.run(env.process(provision_dedicated_hadoop(site)))
    mode2, _ = run_pilot_with_units(stack, "slurm://wrangler",
                                    "yarn-connect", n_units=1, nodes=1)
    mode1, _ = run_pilot_with_units(stack, "slurm://stampede", "yarn",
                                    n_units=1, nodes=1)
    setup = lambda p: (p.timestamp(PilotState.ACTIVE)
                       - p.timestamp(PilotState.PENDING_ACTIVE))
    assert setup(mode2) < setup(mode1) - 20.0


# ---------------------------------------------------------------- AM reuse
def test_am_reuse_cuts_unit_startup(stack):
    """Warm units through the pooled AM skip the client JVM and the AM
    allocation, paying only the task-container phase (ablation A3)."""
    env, registry, session, pmgr, umgr = stack
    plain, plain_units = run_pilot_with_units(
        stack, "slurm://stampede", "yarn", n_units=1)
    plain_more = umgr.submit_units([
        ComputeUnitDescription(cores=1, cpu_seconds=5.0)
        for _ in range(3)])
    env.run(umgr.wait_units(plain_more))

    reuse, reuse_units = run_pilot_with_units(
        stack, "slurm://wrangler", "yarn", n_units=1,
        agent_kw={"reuse_application_master": True})
    reuse_more = umgr.submit_units([
        ComputeUnitDescription(cores=1, cpu_seconds=5.0)
        for _ in range(3)])
    env.run(umgr.wait_units(reuse_more))
    # the umgr round-robins over both pilots now; keep only each
    # pilot's own units
    plain_warm = [u for u in plain_more if u.pilot_uid == plain.uid]
    reuse_warm = [u for u in reuse_more if u.pilot_uid == reuse.uid]
    mean = lambda us: sum(u.startup_time for u in us) / len(us)
    assert mean(reuse_warm) < mean(plain_warm) - 5.0


def test_am_reuse_results_still_correct(stack):
    pilot, units = run_pilot_with_units(
        stack, "slurm://stampede", "yarn", n_units=4,
        unit_kw={"function": lambda: 7},
        agent_kw={"reuse_application_master": True})
    assert [u.result for u in units] == [7, 7, 7, 7]


# ------------------------------------------------------------------- Spark
def test_spark_pilot_runs_units(stack):
    env, registry, session, pmgr, umgr = stack
    pilot, units = run_pilot_with_units(stack, "slurm://stampede", "spark",
                                        n_units=3,
                                        unit_kw={"function": lambda: "s"})
    assert pilot.agent_info["lrm"] == "spark"
    assert pilot.agent_info["lrm_setup_seconds"] > 10.0
    assert all(u.state is UnitState.DONE for u in units)
    assert units[0].result == "s"


def test_spark_teardown_stops_cluster(stack):
    env, registry, session, pmgr, umgr = stack
    pilot, units = run_pilot_with_units(stack, "slurm://stampede", "spark",
                                        n_units=1)
    pmgr.cancel_pilot(pilot.uid)
    env.run(pilot.wait())
    assert pilot.state is PilotState.CANCELED
