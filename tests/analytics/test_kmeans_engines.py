"""Cross-engine K-Means agreement: pilot vs Spark vs reference.

PYTEST_DONT_REWRITE — assertion rewriting of this module trips a
CPython 3.11 ``ast`` recursion-guard bug; plain asserts work fine.
"""

import numpy as np

from repro.analytics import (
    generate_points,
    kmeans_reference,
    run_kmeans_pilot,
    run_kmeans_spark,
)
from repro.cluster import Machine, stampede
from repro.api import (
    AgentConfig,
    ComputePilotDescription,
    PilotManager,
    PilotState,
    Session,
    UnitManager,
)
from repro.saga import Registry, Site
from repro.sim import Environment
from repro.spark import SparkConf, SparkStandaloneCluster
from tests.conftest import FAST_RMS


POINTS = generate_points(400, 6, dim=3, seed=9)
K = 6
EXPECTED = kmeans_reference(POINTS, K, iterations=2)


def pilot_stack(lrm="fork"):
    env = Environment()
    registry = Registry()
    registry.register(Site(env, stampede(num_nodes=2), rms_config=FAST_RMS))
    session = Session(env, registry)
    pmgr, umgr = PilotManager(session), UnitManager(session)
    pilot = pmgr.submit_pilot(ComputePilotDescription(
        resource="slurm://stampede", nodes=2, runtime=600,
        agent_config=AgentConfig(lrm=lrm, bootstrap_seconds=1.0,
                                 db_connect_seconds=0.1,
                                 db_poll_interval=0.2,
                                 spawn_overhead_seconds=0.1)))
    umgr.add_pilots(pilot)
    env.run(pilot.wait(PilotState.ACTIVE))
    return env, umgr


def test_pilot_fork_matches_reference():
    env, umgr = pilot_stack("fork")
    holder = {}

    def driver():
        centroids, units = yield from run_kmeans_pilot(
            umgr, POINTS, K, ntasks=4, iterations=2)
        holder["c"] = centroids
        holder["units"] = units

    env.run(env.process(driver()))
    assert np.allclose(holder["c"], EXPECTED)
    # 2 iterations x (4 maps + 1 reduce)
    assert len(holder["units"]) == 10


def test_pilot_yarn_matches_reference():
    env, umgr = pilot_stack("yarn")
    holder = {}

    def driver():
        centroids, _ = yield from run_kmeans_pilot(
            umgr, POINTS, K, ntasks=4, iterations=2)
        holder["c"] = centroids

    env.run(env.process(driver()))
    assert np.allclose(holder["c"], EXPECTED)


def test_spark_matches_reference():
    env = Environment()
    machine = Machine(env, stampede(num_nodes=2))
    cluster = SparkStandaloneCluster(env, machine, machine.nodes)
    holder = {}

    def driver():
        yield env.process(cluster.start())
        ctx = yield from cluster.context(SparkConf(
            num_executors=2, executor_cores=2))
        centroids = yield from run_kmeans_spark(
            ctx, POINTS, K, iterations=2, num_partitions=4)
        holder["c"] = centroids

    env.run(env.process(driver()))
    assert np.allclose(holder["c"], EXPECTED)


def test_pilot_task_count_independent_of_result():
    env, umgr = pilot_stack("fork")
    holder = {}

    def driver():
        c8, _ = yield from run_kmeans_pilot(umgr, POINTS, K, ntasks=8,
                                            iterations=2)
        holder["c8"] = c8

    env.run(env.process(driver()))
    assert np.allclose(holder["c8"], EXPECTED)
