"""Direct tests for the standalone Master/Worker allocation logic."""

import pytest

from repro.cluster import Machine, stampede
from repro.sim import Environment, SimulationError
from repro.spark import SparkStandaloneCluster


def make_cluster(num_nodes=2):
    env = Environment()
    machine = Machine(env, stampede(num_nodes=num_nodes))
    cluster = SparkStandaloneCluster(env, machine, machine.nodes)
    env.run(env.process(cluster.start()))
    return env, cluster


def request(env, master, app_id, count, cores, memory):
    holder = {}

    def driver():
        holder["granted"] = yield from master.request_executors(
            app_id, count, cores, memory)

    env.run(env.process(driver()))
    return holder["granted"]


def test_spread_out_allocation():
    env, cluster = make_cluster(2)
    granted = request(env, cluster.master, "app1", 4, 4, 1e9)
    assert len(granted) == 4
    nodes = [e.node.name for e in granted]
    # round-robin: two executors per worker
    assert nodes.count(nodes[0]) == 2


def test_partial_grant_when_capacity_short():
    env, cluster = make_cluster(1)
    # 16 cores per node: only 2 executors of 8 cores fit
    granted = request(env, cluster.master, "app1", 5, 8, 1e9)
    assert len(granted) == 2


def test_memory_limits_grants():
    env, cluster = make_cluster(1)
    node_mem = cluster.workers[0].node.memory_bytes
    granted = request(env, cluster.master, "app1", 4, 1,
                      memory=node_mem * 0.6)
    assert len(granted) == 1


def test_release_restores_capacity():
    env, cluster = make_cluster(1)
    before = cluster.workers[0].cores_free
    request(env, cluster.master, "app1", 2, 4, 1e9)
    assert cluster.workers[0].cores_free == before - 8
    cluster.master.release_executors("app1")
    assert cluster.workers[0].cores_free == before
    assert cluster.workers[0].memory_free == \
        cluster.workers[0].node.memory_bytes


def test_release_unknown_app_noop():
    env, cluster = make_cluster(1)
    cluster.master.release_executors("ghost")  # must not raise


def test_request_on_stopped_master_rejected():
    env, cluster = make_cluster(1)
    cluster.stop()
    with pytest.raises(SimulationError, match="not running"):
        cluster.master.request_executors("a", 1, 1, 1.0).send(None)


def test_dead_worker_excluded():
    env, cluster = make_cluster(2)
    cluster.workers[0].stop()
    granted = request(env, cluster.master, "app1", 4, 4, 1e9)
    assert all(e.node is cluster.workers[1].node for e in granted)


def test_executor_ids_unique():
    env, cluster = make_cluster(2)
    a = request(env, cluster.master, "app1", 2, 2, 1e9)
    b = request(env, cluster.master, "app2", 2, 2, 1e9)
    ids = [e.executor_id for e in a + b]
    assert len(set(ids)) == 4


def test_total_cores_counts_live_workers():
    env, cluster = make_cluster(2)
    assert cluster.master.total_cores == 32
    cluster.workers[0].stop()
    assert cluster.master.total_cores == 16
