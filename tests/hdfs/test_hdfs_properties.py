"""Property-based tests of HDFS invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine, stampede
from repro.cluster.storage import MB
from repro.hdfs import HdfsCluster
from repro.sim import Environment, SeedSequenceRegistry


def fresh_hdfs(num_nodes=4, replication=3, block_size=16 * MB):
    env = Environment()
    machine = Machine(env, stampede(num_nodes=num_nodes))
    hdfs = HdfsCluster(env, machine, machine.nodes,
                       replication=replication, block_size=block_size,
                       rng=SeedSequenceRegistry(5).stream("p"))
    env.run(env.process(hdfs.start()))
    return env, hdfs


@given(nbytes=st.integers(min_value=0, max_value=200 * 1024 ** 2),
       block_mb=st.integers(min_value=1, max_value=64))
@settings(max_examples=40, deadline=None)
def test_block_math(nbytes, block_mb):
    """Blocks tile the file exactly: full blocks + one ragged tail."""
    env, hdfs = fresh_hdfs(block_size=block_mb * MB)
    blocks = hdfs.namenode.split_into_blocks("/f", nbytes)
    assert sum(b.nbytes for b in blocks) == nbytes
    assert [b.index for b in blocks] == list(range(len(blocks)))
    for b in blocks[:-1]:
        assert b.nbytes == block_mb * MB
    assert blocks[-1].nbytes <= block_mb * MB


@given(nbytes=st.integers(min_value=1, max_value=100 * 1024 ** 2),
       num_nodes=st.integers(min_value=1, max_value=6),
       replication=st.integers(min_value=1, max_value=5))
@settings(max_examples=25, deadline=None)
def test_replication_invariants(nbytes, num_nodes, replication):
    """Each block has min(replication, nodes) replicas on distinct nodes."""
    env, hdfs = fresh_hdfs(num_nodes=num_nodes, replication=replication)
    client = hdfs.client(hdfs.master_node.name)

    def driver():
        yield env.process(client.put("/f", nbytes))

    env.run(env.process(driver()))
    expected = min(replication, num_nodes)
    for block in hdfs.namenode.file_meta("/f").blocks:
        holders = hdfs.namenode.block_map[block.block_id]
        assert len(holders) == expected
        assert len(set(holders)) == expected  # distinct nodes


@given(sizes=st.lists(st.integers(min_value=1, max_value=20 * 1024 ** 2),
                      min_size=1, max_size=6))
@settings(max_examples=20, deadline=None)
def test_namespace_accounting(sizes):
    """total_bytes equals the sum of all file sizes; delete restores."""
    env, hdfs = fresh_hdfs()
    client = hdfs.client(hdfs.master_node.name)

    def driver():
        for i, size in enumerate(sizes):
            yield env.process(client.put(f"/f{i}", size))

    env.run(env.process(driver()))
    assert hdfs.namenode.total_bytes() == sum(sizes)
    for i in range(len(sizes)):
        client.delete(f"/f{i}")
    assert hdfs.namenode.total_bytes() == 0
    assert all(dn.node.local_disk.used == 0 for dn in hdfs.datanodes)
