"""Tests for HDFS heterogeneous storage (§II: active archival use case)."""

import pytest

from repro.cluster import Machine, stampede
from repro.cluster.storage import MB
from repro.hdfs import HdfsCluster
from repro.hdfs.datanode import ARCHIVE, DISK, RAM_DISK
from repro.sim import Environment, SeedSequenceRegistry, SimulationError


def make_hdfs(num_nodes=3, replication=2):
    env = Environment()
    machine = Machine(env, stampede(num_nodes=num_nodes))
    hdfs = HdfsCluster(env, machine, machine.nodes,
                       replication=replication,
                       rng=SeedSequenceRegistry(9).stream("het"))
    env.run(env.process(hdfs.start()))
    return env, machine, hdfs


def put(env, hdfs, path, nbytes):
    client = hdfs.client(hdfs.master_node.name)

    def driver():
        yield env.process(client.put(path, nbytes))

    env.run(env.process(driver()))
    return client


def replica_types(hdfs, path):
    types = []
    for block in hdfs.namenode.file_meta(path).blocks:
        for name in hdfs.namenode.block_map[block.block_id]:
            types.append(hdfs.datanode(name).storage_type_of(
                block.block_id))
    return types


def test_default_policy_is_hot():
    env, machine, hdfs = make_hdfs()
    put(env, hdfs, "/data/file", 10 * MB)
    assert hdfs.namenode.policy_for("/data/file") == "HOT"
    assert set(replica_types(hdfs, "/data/file")) == {DISK}


def test_cold_policy_archives_all_replicas():
    env, machine, hdfs = make_hdfs()
    hdfs.namenode.set_storage_policy("/archive/", "COLD")
    put(env, hdfs, "/archive/run-0042.tar", 40 * MB)
    assert set(replica_types(hdfs, "/archive/run-0042.tar")) == {ARCHIVE}
    # archive capacity charged, local disks untouched by this file
    archived = sum(dn.archive.used for dn in hdfs.datanodes)
    assert archived == 80 * MB  # 2 replicas


def test_warm_policy_mixes_tiers():
    env, machine, hdfs = make_hdfs(replication=2)
    hdfs.namenode.set_storage_policy("/warm/", "WARM")
    put(env, hdfs, "/warm/f", 10 * MB)
    types = replica_types(hdfs, "/warm/f")
    assert sorted(types) == [ARCHIVE, DISK]


def test_lazy_persist_uses_ram():
    env, machine, hdfs = make_hdfs(replication=2)
    hdfs.namenode.set_storage_policy("/scratchpad/", "LAZY_PERSIST")
    put(env, hdfs, "/scratchpad/tmp", 10 * MB)
    types = replica_types(hdfs, "/scratchpad/tmp")
    assert RAM_DISK in types and DISK in types


def test_longest_prefix_wins():
    env, machine, hdfs = make_hdfs()
    hdfs.namenode.set_storage_policy("/a/", "COLD")
    hdfs.namenode.set_storage_policy("/a/hot/", "HOT")
    assert hdfs.namenode.policy_for("/a/x") == "COLD"
    assert hdfs.namenode.policy_for("/a/hot/x") == "HOT"
    assert hdfs.namenode.policy_for("/elsewhere") == "HOT"


def test_unknown_policy_rejected():
    env, machine, hdfs = make_hdfs()
    with pytest.raises(SimulationError, match="storage policy"):
        hdfs.namenode.set_storage_policy("/x/", "LUKEWARM")


def test_archive_reads_slower_than_disk():
    env, machine, hdfs = make_hdfs(replication=1)
    hdfs.namenode.set_storage_policy("/cold/", "COLD")
    put(env, hdfs, "/hot", 60 * MB)
    put(env, hdfs, "/cold/f", 60 * MB)
    client = hdfs.client(None)
    spans = {}

    def timed_read(path, key):
        def driver():
            t0 = env.now
            yield env.process(client.read(path))
            spans[key] = env.now - t0
        env.run(env.process(driver()))

    timed_read("/hot", "hot")
    timed_read("/cold/f", "cold")
    assert spans["cold"] > spans["hot"] * 2


def test_delete_frees_the_right_tier():
    env, machine, hdfs = make_hdfs()
    hdfs.namenode.set_storage_policy("/archive/", "COLD")
    client = put(env, hdfs, "/archive/f", 12 * MB)
    assert sum(dn.archive.used for dn in hdfs.datanodes) > 0
    hdfs.namenode.delete_file("/archive/f")
    assert sum(dn.archive.used for dn in hdfs.datanodes) == 0
    assert all(dn.node.local_disk.used == 0 for dn in hdfs.datanodes)
