"""Tests for the HDFS simulator."""

import pytest

from repro.cluster import Machine, stampede
from repro.cluster.storage import MB
from repro.hdfs import HdfsCluster
from repro.sim import Environment, SeedSequenceRegistry, SimulationError


def make_hdfs(num_nodes=3, replication=3, block_size=128 * MB):
    env = Environment()
    machine = Machine(env, stampede(num_nodes=num_nodes))
    rng = SeedSequenceRegistry(7).stream("hdfs")
    hdfs = HdfsCluster(env, machine, machine.nodes,
                       replication=replication, block_size=block_size,
                       rng=rng)
    env.run(env.process(hdfs.start()))
    return env, machine, hdfs


def test_cluster_start_costs_time():
    env, machine, hdfs = make_hdfs()
    assert hdfs.running
    # NameNode (12s) + DataNodes in parallel (8s)
    assert env.now == pytest.approx(20.0)


def test_put_creates_blocks_of_block_size():
    env, _, hdfs = make_hdfs(block_size=128 * MB)
    client = hdfs.client(hdfs.master_node.name)

    def driver():
        yield env.process(client.put("/data/file1", 300 * MB))

    env.run(env.process(driver()))
    meta = hdfs.namenode.file_meta("/data/file1")
    sizes = [b.nbytes for b in meta.blocks]
    assert sizes == [128 * MB, 128 * MB, 44 * MB]
    assert meta.nbytes == 300 * MB


def test_put_replicates_to_factor():
    env, _, hdfs = make_hdfs(num_nodes=3, replication=3)
    client = hdfs.client(hdfs.master_node.name)

    def driver():
        yield env.process(client.put("/f", 10 * MB))

    env.run(env.process(driver()))
    nn = hdfs.namenode
    nodes = {name for block in nn.file_meta("/f").blocks
             for name in nn.block_map[block.block_id]}
    assert len(nodes) == 3


def test_replication_capped_by_cluster_size():
    env, _, hdfs = make_hdfs(num_nodes=2, replication=3)
    assert hdfs.namenode.replication == 2


def test_writer_local_first_replica():
    env, _, hdfs = make_hdfs()
    writer = hdfs.nodes[1].name
    client = hdfs.client(writer)

    def driver():
        yield env.process(client.put("/f", 10 * MB))

    env.run(env.process(driver()))
    first_block = hdfs.namenode.file_meta("/f").blocks[0]
    assert hdfs.namenode.block_map[first_block.block_id][0] == writer


def test_duplicate_put_rejected():
    env, _, hdfs = make_hdfs()
    client = hdfs.client(hdfs.master_node.name)

    def driver():
        yield env.process(client.put("/f", 1 * MB))

    env.run(env.process(driver()))
    with pytest.raises(FileExistsError):
        hdfs.namenode.split_into_blocks("/f", 1.0)


def test_read_returns_payloads_in_order():
    env, _, hdfs = make_hdfs(block_size=10 * MB)
    client = hdfs.client(hdfs.master_node.name)
    result = {}

    def driver():
        yield env.process(client.put("/f", 30 * MB,
                                     payload_slices=["a", "b", "c"]))
        proc = env.process(client.read("/f"))
        payloads = yield proc
        result["payloads"] = payloads

    env.run(env.process(driver()))
    assert result["payloads"] == ["a", "b", "c"]


def test_read_missing_file():
    env, _, hdfs = make_hdfs()
    client = hdfs.client(None)
    with pytest.raises(FileNotFoundError):
        hdfs.namenode.file_meta("/nope")


def test_local_read_prefers_local_replica():
    env, _, hdfs = make_hdfs(num_nodes=3, replication=3)
    node = hdfs.nodes[2].name
    client = hdfs.client(node)

    def driver():
        yield env.process(client.put("/f", 10 * MB))
        dn = hdfs.datanode(node)
        before = dn.bytes_read
        yield env.process(client.read("/f"))
        assert dn.bytes_read > before  # served locally

    env.run(env.process(driver()))


def test_delete_frees_replica_space():
    env, _, hdfs = make_hdfs()
    client = hdfs.client(hdfs.master_node.name)

    def driver():
        yield env.process(client.put("/f", 12 * MB))

    env.run(env.process(driver()))
    used_before = sum(dn.node.local_disk.used for dn in hdfs.datanodes)
    assert used_before == 36 * MB  # 3 replicas
    hdfs.namenode.delete_file("/f")
    used_after = sum(dn.node.local_disk.used for dn in hdfs.datanodes)
    assert used_after == 0
    assert not client.exists("/f")


def test_block_locations_counts():
    env, _, hdfs = make_hdfs(block_size=10 * MB, replication=2)
    client = hdfs.client(hdfs.master_node.name)

    def driver():
        yield env.process(client.put("/f", 25 * MB))

    env.run(env.process(driver()))
    nn = hdfs.namenode
    blocks = nn.file_meta("/f").blocks
    # 3 blocks x 2 replicas
    assert [len(nn.block_map[b.block_id]) for b in blocks] == [2, 2, 2]


def test_datanode_failure_then_reread_from_survivor():
    env, _, hdfs = make_hdfs(num_nodes=3, replication=2)
    client = hdfs.client(None)

    def driver():
        yield env.process(client.put("/f", 10 * MB))
        block = hdfs.namenode.file_meta("/f").blocks[0]
        holders = hdfs.namenode.block_map[block.block_id]
        hdfs.datanode(holders[0]).fail()
        payloads = yield env.process(client.read("/f"))
        return payloads

    env.run(env.process(driver()))  # must not raise


def test_all_replicas_lost_raises():
    env, _, hdfs = make_hdfs(num_nodes=3, replication=1)
    client = hdfs.client(None)

    def driver():
        yield env.process(client.put("/f", 10 * MB))
        block = hdfs.namenode.file_meta("/f").blocks[0]
        for name in hdfs.namenode.block_map[block.block_id]:
            hdfs.datanode(name).fail()
        with pytest.raises(SimulationError, match="no live replica"):
            yield env.process(client.read("/f"))

    env.run(env.process(driver()))


def test_under_replication_detection_and_repair():
    env, _, hdfs = make_hdfs(num_nodes=3, replication=2)
    client = hdfs.client(None)

    def driver():
        yield env.process(client.put("/f", 10 * MB))
        block = hdfs.namenode.file_meta("/f").blocks[0]
        lost = hdfs.namenode.block_map[block.block_id][0]
        hdfs.datanode(lost).fail()
        assert hdfs.namenode.under_replicated() == [block]
        yield env.process(hdfs.namenode.handle_datanode_loss(lost))
        assert hdfs.namenode.under_replicated() == []
        live = hdfs.namenode._live_replica_nodes(block.block_id)
        assert len(live) == 2

    env.run(env.process(driver()))


def test_stop_cluster():
    env, _, hdfs = make_hdfs()
    hdfs.stop()
    assert not hdfs.running
    assert all(not dn.alive for dn in hdfs.datanodes)


def test_store_on_dead_datanode_rejected():
    env, _, hdfs = make_hdfs()
    dn = hdfs.datanodes[0]
    dn.fail()
    block = hdfs.namenode.split_into_blocks("/x", 1 * MB)[0]
    with pytest.raises(SimulationError, match="down"):
        dn.store(block)


def test_zero_byte_file_single_empty_block():
    env, _, hdfs = make_hdfs()
    client = hdfs.client(hdfs.master_node.name)

    def driver():
        yield env.process(client.put("/empty", 0))

    env.run(env.process(driver()))
    meta = hdfs.namenode.file_meta("/empty")
    assert len(meta.blocks) == 1
    assert meta.nbytes == 0
