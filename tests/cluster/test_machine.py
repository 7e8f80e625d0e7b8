"""Tests for machine templates, nodes and the interconnect."""

import pytest

from repro.cluster import Machine, stampede, wrangler
from repro.cluster.storage import GB, MB
from repro.sim import Environment, SimulationError


def test_stampede_geometry_matches_paper():
    spec = stampede(num_nodes=3)
    assert spec.cores_per_node == 16
    assert spec.memory_per_node == 32 * GB
    assert spec.cpu_speed == 1.0
    assert not spec.has_dedicated_hadoop


def test_wrangler_geometry_matches_paper():
    spec = wrangler(num_nodes=3)
    assert spec.cores_per_node == 48
    assert spec.memory_per_node == 128 * GB
    assert spec.cpu_speed > 1.0
    assert spec.has_dedicated_hadoop


def test_wrangler_faster_local_disk_than_stampede():
    assert (wrangler().local_disk.aggregate_bw
            > stampede().local_disk.aggregate_bw)


def test_machine_instantiates_nodes():
    env = Environment()
    machine = Machine(env, stampede(num_nodes=3))
    assert len(machine.nodes) == 3
    assert all(n.num_cores == 16 for n in machine.nodes)


def test_machine_node_lookup():
    env = Environment()
    machine = Machine(env, stampede(num_nodes=2))
    node = machine.nodes[1]
    assert machine.node_by_name(node.name) is node
    with pytest.raises(KeyError):
        machine.node_by_name("nope")


def test_zero_node_machine_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        Machine(env, stampede(num_nodes=0))


def test_download_seconds():
    env = Environment()
    machine = Machine(env, stampede(num_nodes=1))
    secs = machine.download_seconds(240 * MB)
    assert secs == pytest.approx(240 / 12, rel=1e-6)


def test_node_compute_seconds_scales_with_cpu_speed():
    env = Environment()
    slow = Machine(env, stampede(num_nodes=1)).nodes[0]
    fast = Machine(env, wrangler(num_nodes=1)).nodes[0]
    assert fast.compute_seconds(100.0) < slow.compute_seconds(100.0)


def test_node_memory_accounting():
    env = Environment()
    node = Machine(env, stampede(num_nodes=1)).nodes[0]

    def use():
        yield node.memory.get(10 * GB)
        assert node.memory.level == 22 * GB
        yield node.memory.put(10 * GB)

    env.run(env.process(use()))
    assert node.memory.level == 32 * GB


def test_node_failure_flag():
    env = Environment()
    node = Machine(env, stampede(num_nodes=1)).nodes[0]
    assert node.alive
    node.fail()
    assert not node.alive
    node.recover()
    assert node.alive


def test_interconnect_intra_node_cheap():
    env = Environment()
    machine = Machine(env, stampede(num_nodes=2))
    times = {}

    def send(key, src, dst):
        yield machine.network.send(src, dst, 100 * MB)
        times[key] = env.now

    env.process(send("local", "n0", "n0"))
    env.run()
    env2 = Environment()
    machine2 = Machine(env2, stampede(num_nodes=2))

    def send2():
        yield machine2.network.send("n0", "n1", 100 * MB)
        times["remote"] = env2.now

    env2.process(send2())
    env2.run()
    assert times["local"] < times["remote"] or times["remote"] < 1.0


def test_invalid_node_parameters_rejected():
    env = Environment()
    from repro.cluster.node import Node
    from repro.cluster.storage import StorageSpec
    disk = StorageSpec(name="d", aggregate_bw=1.0)
    with pytest.raises(SimulationError):
        Node(env, "x", cores=0, memory_bytes=1.0, local_disk=disk)
    with pytest.raises(SimulationError):
        Node(env, "x", cores=1, memory_bytes=0.0, local_disk=disk)
    with pytest.raises(SimulationError):
        Node(env, "x", cores=1, memory_bytes=1.0, local_disk=disk, cpu_speed=0)


def test_spec_with_nodes_copy():
    spec = stampede(num_nodes=2).with_nodes(10)
    assert spec.num_nodes == 10
    assert spec.cores_per_node == 16


def test_node_core_accounting():
    env = Environment()
    node = Machine(env, stampede(num_nodes=1)).nodes[0]

    def hold():
        with node.cores.request() as req:
            yield req
            assert node.cores_in_use == 1
            assert node.cores_free == 15
            yield env.timeout(1.0)

    env.run(env.process(hold()))
    assert node.cores_in_use == 0


def test_wan_roundtrip_costs_two_latencies():
    env = Environment()
    machine = Machine(env, stampede(num_nodes=1))
    done = []

    def rt():
        yield machine.network.wan_roundtrip()
        done.append(env.now)

    env.run(env.process(rt()))
    assert done[0] == pytest.approx(0.100, rel=1e-6)
