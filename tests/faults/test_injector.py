"""Injector mechanics: each fault kind's failure and healing edges."""

import pytest

from repro.cluster import Machine, stampede
from repro.cluster.storage import MB
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.hdfs import HdfsCluster
from repro.sim import Environment, SimulationError
from repro.yarn import YarnCluster


def make_machine(env, nodes=3):
    """Machine built *after* the plan so it registers as a target."""
    return Machine(env, stampede(num_nodes=nodes))


def test_install_is_idempotent_and_plan_installs_eagerly():
    env = Environment()
    assert env.faults is None
    plan = FaultPlan(env=env)
    assert env.faults is plan.injector
    assert FaultInjector.install(env) is plan.injector


def test_plan_requires_session_or_env():
    with pytest.raises(SimulationError, match="session or an env"):
        FaultPlan()


def test_node_crash_fires_and_heals():
    env = Environment()
    plan = FaultPlan(env=env)
    machine = make_machine(env)
    node = machine.nodes[1]
    plan.node_crash(at=5.0, node=node.name, duration=10.0)
    env.run(until=6.0)
    assert not node.alive and node.failed_at == 5.0
    env.run(until=16.0)
    assert node.alive
    assert [s.kind for s in plan.injector.fired] == ["node_crash"]


def test_node_failure_event_fires_at_injection_instant():
    env = Environment()
    plan = FaultPlan(env=env)
    machine = make_machine(env)
    node = machine.nodes[0]
    seen = {}

    def watcher():
        yield node.failure_event()
        seen["at"] = env.now

    env.process(watcher())
    plan.node_crash(at=7.5, node=node.name)
    env.run(until=20.0)
    assert seen["at"] == 7.5
    # dead node: waiters resume immediately
    assert node.failure_event().triggered


def test_straggler_slows_then_restores():
    env = Environment()
    plan = FaultPlan(env=env)
    machine = make_machine(env)
    node = machine.nodes[0]
    base = node.cpu_speed
    plan.straggler(at=1.0, node=node.name, factor=4.0, duration=3.0)
    env.run(until=2.0)
    assert node.cpu_speed == base / 4.0
    assert node.compute_seconds(10.0) == pytest.approx(40.0 / base)
    env.run(until=5.0)
    assert node.cpu_speed == base


def test_network_degrade_scales_bandwidth_then_restores():
    env = Environment()
    plan = FaultPlan(env=env)
    machine = make_machine(env)
    fabric = machine.network
    base_agg = fabric.backbone.aggregate_bw
    plan.network_degrade(at=0.0, factor=0.25, duration=5.0)
    env.run(until=1.0)
    assert fabric.degrade_factor == 0.25
    assert fabric.backbone.aggregate_bw == pytest.approx(base_agg * 0.25)
    env.run(until=6.0)
    assert fabric.degrade_factor == 1.0
    assert fabric.backbone.aggregate_bw == pytest.approx(base_agg)


def test_partition_holds_crossing_transfers_until_heal():
    env = Environment()
    plan = FaultPlan(env=env)
    machine = make_machine(env)
    a, b, c = (n.name for n in machine.nodes[:3])
    plan.network_partition(at=0.0, group=a, duration=10.0)
    env.run(until=1.0)
    fabric = machine.network
    assert fabric.is_partitioned(a, b) and fabric.is_partitioned(b, a)
    assert not fabric.is_partitioned(b, c)
    crossing = fabric.send(a, b, 64 * MB)
    same_side = fabric.send(b, c, 64 * MB)
    env.run(until=9.0)
    assert same_side.triggered
    assert not crossing.triggered  # held by the cut
    env.run(until=30.0)
    assert crossing.triggered      # released at heal, then transferred
    assert not fabric.is_partitioned(a, b)


def test_unit_error_ledger_take_and_transfer():
    env = Environment()
    plan = FaultPlan(env=env)
    plan.unit_error("unit.000001", times=2)
    injector = plan.injector
    assert injector.take_unit_error("unit.000042") is None
    first = injector.take_unit_error("unit.000001")
    assert first is not None and "unit.000001" in first
    # restart under a new uid carries the remaining poison along
    injector.transfer_unit_error("unit.000001", "unit.000099")
    assert injector.take_unit_error("unit.000001") is None
    assert injector.take_unit_error("unit.000099") is not None
    assert injector.take_unit_error("unit.000099") is None


def test_unknown_targets_raise():
    env = Environment()
    plan = FaultPlan(env=env)
    make_machine(env)
    with pytest.raises(SimulationError, match="not found on any"):
        plan.injector.fire(FaultSpec(kind="node_crash", target="ghost"))
    with pytest.raises(SimulationError, match="DataNode"):
        plan.injector.fire(FaultSpec(kind="datanode_loss", target="ghost"))
    with pytest.raises(SimulationError, match="NodeManager"):
        plan.injector.fire(
            FaultSpec(kind="nodemanager_loss", target="ghost"))


def test_container_kill_without_yarn_is_a_noop():
    env = Environment()
    plan = FaultPlan(env=env)
    plan.container_kill(at=1.0)
    env.run(until=2.0)
    assert [s.kind for s in plan.injector.fired] == ["container_kill"]


def test_datanode_fail_releases_capacity_ledger():
    env = Environment()
    plan = FaultPlan(env=env)
    machine = make_machine(env, nodes=3)
    hdfs = HdfsCluster(env, machine, machine.nodes, replication=2)
    env.run(env.process(hdfs.start()))
    client = hdfs.client(hdfs.master_node.name)
    env.run(env.process(client.put("/ledger/f0", 128 * MB)))
    victim = next(dn for dn in hdfs.datanodes if dn.blocks)
    held = sum(b.nbytes for b in victim.blocks.values())
    disk = victim.node.local_disk
    used_before = disk.used
    assert held > 0
    plan.datanode_loss(at=env.now + 1.0, node=victim.name)
    env.run(until=env.now + 2.0)
    assert not victim.alive and victim.failed_at is not None
    assert not victim.blocks and not victim.block_storage
    assert disk.used == pytest.approx(used_before - held)


def test_replication_monitor_restores_replication_factor():
    env = Environment()
    plan = FaultPlan(env=env)
    machine = make_machine(env, nodes=3)
    hdfs = HdfsCluster(env, machine, machine.nodes, replication=2,
                       auto_heal=True, heal_interval=1.0, dn_timeout=2.0)
    env.run(env.process(hdfs.start()))
    client = hdfs.client(hdfs.master_node.name)
    env.run(env.process(client.put("/heal/f0", 128 * MB)))
    nn = hdfs.namenode
    assert nn.replication_factor_of("/heal/f0") == 2
    victim = next(dn for dn in hdfs.datanodes
                  if dn.name != hdfs.master_node.name and dn.blocks)
    plan.datanode_loss(at=env.now + 1.0, node=victim.name)
    env.run(until=env.now + 2.0)
    assert nn.replication_factor_of("/heal/f0") == 1
    env.run(until=env.now + 60.0)
    assert nn.replication_factor_of("/heal/f0") == 2
    assert not nn.under_replicated()
    hdfs.stop()


def test_rm_expires_lost_node_and_reclaims_capacity():
    env = Environment()
    plan = FaultPlan(env=env)
    machine = make_machine(env, nodes=2)
    yarn = YarnCluster(env, machine, machine.nodes)
    env.run(env.process(yarn.start()))
    victim = yarn.node_managers[1]
    plan.nodemanager_loss(at=env.now + 2.0, node=victim.name)
    # nm_heartbeat=1.0 x nm_liveness_heartbeats=3: lost within ~5s
    env.run(until=env.now + 10.0)
    rm = yarn.resource_manager
    assert victim.name in rm.lost_nodes
    assert not victim.alive and victim.failed_at is not None
    assert victim.used.memory_mb == 0 and not victim.containers
