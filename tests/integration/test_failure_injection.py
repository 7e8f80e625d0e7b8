"""Failure-injection integration tests across the full stack.

PYTEST_DONT_REWRITE — assertion rewriting of this module trips a
CPython 3.11 ``ast`` recursion-guard bug; plain asserts work fine.
"""

import numpy as np

from repro.analytics import generate_points, kmeans_reference
from repro.analytics.kmeans import run_kmeans_mapreduce
from repro.cluster import Machine, stampede
from repro.api import (
    ComputePilotDescription,
    ComputeUnitDescription,
    PilotManager,
    PilotState,
    Session,
    UnitManager,
    UnitState,
)
from repro.hdfs import HdfsCluster
from repro.saga import Registry, Site
from repro.sim import Environment, SeedSequenceRegistry
from repro.yarn import YarnCluster
from tests.conftest import FAST_RMS


def fast_agent(**kw):
    from repro.api import AgentConfig
    defaults = dict(bootstrap_seconds=2.0, db_connect_seconds=0.2,
                    db_poll_interval=0.2, spawn_overhead_seconds=0.1)
    defaults.update(kw)
    return AgentConfig(**defaults)


def make_stack():
    env = Environment()
    registry = Registry()
    registry.register(Site(env, stampede(num_nodes=3),
                           rms_config=FAST_RMS))
    session = Session(env, registry)
    return env, registry, session, PilotManager(session), \
        UnitManager(session)


# ----------------------------------------------------------- walltime kill
def test_walltime_kills_pilot_and_cancels_units():
    env, registry, session, pmgr, umgr = make_stack()
    pilot = pmgr.submit_pilot(ComputePilotDescription(
        resource="slurm://stampede", nodes=1, runtime=1.0,  # 60s walltime
        agent_config=fast_agent()))
    umgr.add_pilots(pilot)
    env.run(pilot.wait(PilotState.ACTIVE))
    units = umgr.submit_units([ComputeUnitDescription(
        cores=1, cpu_seconds=1e6)])
    env.run(pilot.wait())
    env.run(umgr.wait_units(units))
    assert pilot.state is PilotState.DONE  # walltime is a normal end
    assert units[0].state is UnitState.CANCELED


# --------------------------------------------------- MR under node failure
def test_mapreduce_survives_replica_loss_between_jobs():
    env = Environment()
    machine = Machine(env, stampede(num_nodes=3))
    hdfs = HdfsCluster(env, machine, machine.nodes, replication=2,
                       rng=SeedSequenceRegistry(3).stream("fi"))
    yarn = YarnCluster(env, machine, machine.nodes)

    def boot():
        yield env.process(hdfs.start())
        yield env.process(yarn.start())

    env.run(env.process(boot()))
    points = generate_points(300, 5, seed=11)
    holder = {}

    def driver():
        # fail one datanode AFTER the data is loaded; replication=2
        # guarantees a surviving replica for every block
        client = hdfs.client(hdfs.master_node.name)
        from repro.analytics.kmeans import KMeansCost
        cost = KMeansCost()
        nbytes = cost.bytes_per_point_in * len(points)
        chunks = np.array_split(points, 4)
        yield env.process(client.put(
            "/kmeans/points", nbytes,
            payload_slices=[[c] for c in chunks],
            block_size=max(1.0, nbytes / 4)))
        hdfs.datanodes[1].fail()
        centroids = yield from run_kmeans_mapreduce(
            env, hdfs, yarn, points, 5, iterations=2, num_blocks=4)
        holder["c"] = centroids

    env.run(env.process(driver()))
    assert np.allclose(holder["c"],
                       kmeans_reference(points, 5, iterations=2))


# ------------------------------------------------ YARN NM loss mid-pilot
def test_yarn_pilot_unit_fails_when_its_node_dies_mid_execution():
    from repro import telemetry
    env, registry, session, pmgr, umgr = make_stack()
    tel = telemetry.install(env)
    pilot = pmgr.submit_pilot(ComputePilotDescription(
        resource="slurm://stampede", nodes=3, runtime=600,
        agent_config=fast_agent(lrm="yarn")))
    umgr.add_pilots(pilot)
    env.run(pilot.wait(PilotState.ACTIVE))
    units = umgr.submit_units([ComputeUnitDescription(
        cores=1, cpu_seconds=300.0) for _ in range(3)])
    failures = []
    tel.bus.subscribe(failures.append, categories=("yarn",),
                      names=("node_failed",))

    def killer():
        yield units[0].wait(UnitState.EXECUTING)
        yield env.timeout(5.0)
        # find the YARN cluster the agent booted and fail a busy NM
        site = registry.lookup("stampede")
        # the agent's LRM holds the cluster; locate a container node
        from repro.yarn.node_manager import NodeManager
        import gc
        nms = [o for o in gc.get_objects()
               if isinstance(o, NodeManager) and o.containers]
        if nms:
            nms[0].fail()

    env.process(killer())
    env.run(umgr.wait_units(units))
    states = sorted(u.state.value for u in units)
    # at least one unit died with its node; the agent survived
    assert "Failed" in states
    assert pilot.state is PilotState.ACTIVE
    # the node loss surfaced on the telemetry bus, live and recorded
    assert len(failures) == 1
    assert failures[0].payload["containers"] >= 1
    assert tel.bus.select("yarn", "node_failed") == failures
    counters = tel.metrics.find("yarn.nm.failures")
    assert sum(c.total for c in counters) == 1
    # the doomed container's lifecycle closed out on the bus too
    finished = tel.bus.select("yarn", "container_finished")
    assert any(e.payload["state"] == "killed" for e in finished)


# ------------------------------------------------- burst + mixed failures
def test_mixed_bag_of_good_and_bad_units():
    env, registry, session, pmgr, umgr = make_stack()
    pilot = pmgr.submit_pilot(ComputePilotDescription(
        resource="slurm://stampede", nodes=2, runtime=600,
        agent_config=fast_agent()))
    umgr.add_pilots(pilot)
    env.run(pilot.wait(PilotState.ACTIVE))

    def sometimes_boom(i):
        if i % 3 == 0:
            raise RuntimeError(f"unit {i} exploded")
        return i

    units = umgr.submit_units([ComputeUnitDescription(
        cores=1, cpu_seconds=2.0, function=sometimes_boom, args=(i,))
        for i in range(12)])
    env.run(umgr.wait_units(units))
    done = [u for u in units if u.state is UnitState.DONE]
    failed = [u for u in units if u.state is UnitState.FAILED]
    assert len(done) == 8
    assert len(failed) == 4
    assert all(u.result is not None for u in done)
    assert all("exploded" in u.stderr for u in failed)
    # the pilot keeps serving after the failures
    more = umgr.submit_units(ComputeUnitDescription(
        cores=1, function=lambda: "still alive"))
    env.run(umgr.wait_units(more))
    assert more[0].result == "still alive"


# -------------------------------------------- datanode loss + re-replication
def test_hdfs_heals_then_serves_under_further_failure():
    env = Environment()
    machine = Machine(env, stampede(num_nodes=4))
    hdfs = HdfsCluster(env, machine, machine.nodes, replication=2,
                       rng=SeedSequenceRegistry(4).stream("heal"))
    env.run(env.process(hdfs.start()))
    client = hdfs.client(None)

    def driver():
        yield env.process(client.put("/f", 64 * 1024 ** 2))
        block = hdfs.namenode.file_meta("/f").blocks[0]
        first, second = hdfs.namenode.block_map[block.block_id][:2]
        hdfs.datanode(first).fail()
        yield env.process(hdfs.namenode.handle_datanode_loss(first))
        # now kill the other original replica too: the healed copy
        # must still serve the read
        hdfs.datanode(second).fail()
        payloads = yield env.process(client.read("/f"))
        return payloads

    env.run(env.process(driver()))  # must not raise
