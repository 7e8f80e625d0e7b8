"""Chaos experiments: completion-time inflation under injected faults.

Three deterministic scenarios, all driven by :mod:`repro.faults`:

* **bag** — a bag of tasks with a fraction poisoned by transient
  executor errors; the Unit-Manager's :class:`RestartPolicy` absorbs
  them, and the row reports the makespan inflation vs the fault rate.
* **nm-loss** — a Mode I RP-YARN pilot loses a NodeManager mid-run;
  the YARN RM expires the node.  Every task container there shares its
  AM's node, so AM and task die together and no AM is left to
  re-attempt; the Unit-Manager's :class:`RestartPolicy` resubmits those
  units and every unit still finishes.
* **hdfs-heal** — an HDFS cluster with the replication monitor armed
  loses a DataNode; the NameNode detects the silence, re-replicates
  and the row reports the measured MTTR plus the restored replication
  factor.

Everything is a function of (cell parameters, seed): the chaos grid's
canonical aggregate is byte-identical across ``--jobs`` values and
with the runtime sanitizer on or off.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

#: Fault rates swept by the bag scenario (fraction of units poisoned).
FAULT_RATES = (0.0, 0.25, 0.5)

_FLAVOR_LRM = {"RP": "fork", "RP-YARN": "yarn"}


@dataclass
class ChaosBagRow:
    """One bag-of-tasks cell: fault rate vs completion-time inflation."""

    flavor: str
    fault_rate: float
    units: int
    poisoned: int
    restarts: int
    recovered: int
    done: int
    makespan: float


@dataclass
class NodeLossRow:
    """One NodeManager-loss cell: YARN-side recovery."""

    machine: str
    units: int
    done: int
    reattempts: int
    nodes_lost: int
    makespan: float


@dataclass
class HdfsHealRow:
    """One DataNode-loss cell: NameNode-driven re-replication."""

    replication: int
    files: int
    rf_before: int
    rf_after_loss: int
    rf_restored: int
    mttr: float


def run_chaos_bag(flavor: str = "RP", fault_rate: float = 0.0,
                  ntasks: int = 16, nodes: int = 2,
                  seed: int = 42) -> ChaosBagRow:
    """A bag of tasks with ``fault_rate`` of them poisoned once each."""
    from repro.api import (ComputeUnitDescription, RestartPolicy,
                           UnitManager)
    from repro.experiments.calibration import agent_config
    from repro.experiments.harness import Testbed

    testbed = Testbed("stampede", num_nodes=nodes, seed=seed)
    policy = RestartPolicy(max_restarts=3, backoff=0.5,
                           backoff_factor=2.0, backoff_cap=8.0)
    umgr = UnitManager(testbed.session, restart_policy=policy)
    testbed.umgr = umgr
    testbed.start_pilot(
        nodes=nodes, agent_config=agent_config(_FLAVOR_LRM[flavor]))
    units = umgr.submit_units([
        ComputeUnitDescription(cores=1, cpu_seconds=30.0, memory_mb=1024,
                               name=f"chaos-{i}")
        for i in range(ntasks)])
    npoison = round(fault_rate * ntasks)
    for i in range(npoison):
        # evenly spread over the bag, deterministically
        testbed.session.faults.unit_error(
            units[(i * ntasks) // npoison].uid, times=1)
    t0 = testbed.env.now
    testbed.env.run(umgr.wait_units(units))
    finals = [umgr.final_unit(u) for u in units]
    done = sum(1 for u in finals if u.state.value == "Done")
    restarts = sum(umgr._restarts_used.values())
    recovered = sum(
        1 for u, f in zip(units, finals, strict=True)
        if f.state.value == "Done" and f.uid != u.uid)
    return ChaosBagRow(
        flavor=flavor, fault_rate=fault_rate, units=ntasks,
        poisoned=npoison, restarts=restarts, recovered=recovered,
        done=done, makespan=testbed.env.now - t0)


def run_nm_loss(machine: str = "stampede", ntasks: int = 12,
                nodes: int = 2, seed: int = 42) -> NodeLossRow:
    """Kill a NodeManager mid-run; client-side restarts finish every
    unit (``reattempts`` counts AM re-attempts, which need an AM that
    outlives its task container)."""
    from repro.api import (ComputeUnitDescription, RestartPolicy,
                           UnitManager)
    from repro.experiments.calibration import agent_config
    from repro.experiments.harness import Testbed

    testbed = Testbed(machine, num_nodes=nodes, seed=seed)
    plan = testbed.session.faults   # install the injector before the
    tel = testbed.session.telemetry  # Mode I clusters come up
    # Container kills are absorbed YARN-side (AM re-attempts); units
    # whose *AM* died with the node are resubmitted client-side.
    testbed.umgr = UnitManager(
        testbed.session,
        restart_policy=RestartPolicy(max_restarts=3, backoff=1.0))
    config = agent_config("yarn")
    config = config.replace(yarn_config=dataclasses.replace(
        config.yarn_config, am_max_attempts=3, am_retry_backoff=1.0))
    testbed.start_pilot(nodes=nodes, agent_config=config)
    units = testbed.umgr.submit_units([
        ComputeUnitDescription(cores=1, cpu_seconds=60.0, memory_mb=1024,
                               name=f"nmloss-{i}")
        for i in range(ntasks)])
    # the last allocation node hosts task containers; kill its NM once
    # the first wave is executing
    victim = testbed.site.machine.nodes[-1].name
    plan.nodemanager_loss(at=testbed.env.now + 40.0, node=victim)
    t0 = testbed.env.now
    testbed.env.run(testbed.umgr.wait_units(units))
    rm = plan.injector.yarn_clusters[0].resource_manager
    done = sum(1 for u in units
               if testbed.umgr.final_unit(u).state.value == "Done")
    return NodeLossRow(
        machine=machine, units=ntasks, done=done,
        reattempts=int(tel.counter("yarn.am.reattempts").total),
        nodes_lost=len(rm.lost_nodes),
        makespan=testbed.env.now - t0)


def run_hdfs_heal(nodes: int = 4, replication: int = 2, files: int = 4,
                  seed: int = 42) -> HdfsHealRow:
    """Lose a DataNode; the replication monitor restores the factor."""
    import repro.telemetry
    from repro.cluster import Machine, stampede
    from repro.cluster.storage import MB
    from repro.faults import FaultPlan
    from repro.hdfs import HdfsCluster
    from repro.sim import Environment, SeedSequenceRegistry

    env = Environment()
    plan = FaultPlan(env=env)  # installs env.faults before registration
    tel = repro.telemetry.install(env)
    machine = Machine(env, stampede(num_nodes=nodes))
    rng = SeedSequenceRegistry(seed).stream("hdfs")
    hdfs = HdfsCluster(env, machine, machine.nodes,
                       replication=replication, rng=rng,
                       auto_heal=True, heal_interval=1.0, dn_timeout=3.0)
    env.run(env.process(hdfs.start()))
    client = hdfs.client(hdfs.master_node.name)
    paths = [f"/chaos/f{i}" for i in range(files)]

    def put_all():
        for path in paths:
            yield env.process(client.put(path, 64 * MB))

    env.run(env.process(put_all()))
    nn = hdfs.namenode
    rf_before = min(nn.replication_factor_of(p) for p in paths)
    # kill a DataNode that holds replicas (never the writer-local master)
    victim = sorted(dn.name for dn in hdfs.datanodes
                    if dn.name != hdfs.master_node.name and dn.blocks)[0]
    plan.datanode_loss(at=env.now + 2.0, node=victim)
    env.run(until=env.now + 5.0)
    rf_after_loss = min(nn.replication_factor_of(p) for p in paths)
    env.run(until=env.now + 60.0)
    rf_restored = min(nn.replication_factor_of(p) for p in paths)
    hdfs.stop()
    mttr_hist = tel.histogram("hdfs.rereplication_mttr")
    return HdfsHealRow(
        replication=replication, files=files, rf_before=rf_before,
        rf_after_loss=rf_after_loss, rf_restored=rf_restored,
        mttr=mttr_hist.max if mttr_hist.count else -1.0)


def run_chaos_cell(kind: str, seed: int,
                   flavor: str = "RP",
                   fault_rate: Optional[float] = None):
    """Dispatch one chaos cell (used by the sweep runner)."""
    if kind == "bag":
        return run_chaos_bag(flavor=flavor, fault_rate=fault_rate or 0.0,
                             seed=seed)
    if kind == "nm-loss":
        return run_nm_loss(seed=seed)
    if kind == "hdfs-heal":
        return run_hdfs_heal(seed=seed)
    raise ValueError(f"unknown chaos cell kind {kind!r}")
