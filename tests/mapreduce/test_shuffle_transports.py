"""Tests for the three shuffle transports (§II/§V related work)."""

import pytest

from repro.mapreduce import MapReduceJob
from tests.mapreduce.test_mapreduce import (
    EXPECTED,
    WORDS,
    collect_counts,
    load_words,
    make_stack,
    wordcount_spec,
)


def run_with_transport(transport):
    env, machine, hdfs, yarn = make_stack()
    load_words(env, hdfs, WORDS)
    spec = wordcount_spec()
    spec.shuffle_transport = transport
    job = MapReduceJob(env, spec, hdfs)
    output = env.run(env.process(job.run_inline()))
    return env, machine, job, output


@pytest.mark.parametrize("transport", ["local", "lustre", "rdma"])
def test_all_transports_correct(transport):
    env, machine, job, output = run_with_transport(transport)
    assert collect_counts(output) == EXPECTED


def test_invalid_transport_rejected():
    spec = wordcount_spec()
    spec.shuffle_transport = "carrier-pigeon"
    with pytest.raises(ValueError, match="shuffle transport"):
        spec.validate()


def test_lustre_transport_uses_shared_fs():
    env, machine, job, output = run_with_transport("lustre")
    assert machine.shared_fs.write_bytes > 0
    # shuffle space is reclaimed after the fetch
    assert machine.shared_fs.used == 0


def test_local_transport_uses_node_disks():
    env, machine, job, output = run_with_transport("local")
    spill = sum(n.local_disk.write_bytes for n in machine.nodes)
    assert spill > 0


def test_rdma_transport_skips_disks():
    env, machine, job, output = run_with_transport("rdma")
    # no spill anywhere: bytes only crossed the interconnect
    hdfs_writes = 0  # input was loaded before; count only deltas is
    # awkward, so compare against the local run instead
    env2, machine2, job2, _ = run_with_transport("local")
    spill_rdma = sum(n.local_disk.write_bytes for n in machine.nodes)
    spill_local = sum(n.local_disk.write_bytes for n in machine2.nodes)
    assert spill_rdma < spill_local


def test_rdma_faster_than_local_for_shuffle_heavy_job():
    """The HOMR/RDMA-shuffle claim: bypassing disks cuts job time."""
    times = {}
    for transport in ("local", "rdma"):
        env, machine, hdfs, yarn = make_stack()
        load_words(env, hdfs, WORDS)
        spec = wordcount_spec()
        spec.shuffle_transport = transport
        spec.bytes_per_pair = 50e6  # make the shuffle dominate
        job = MapReduceJob(env, spec, hdfs)
        t0 = env.now
        env.run(env.process(job.run_inline()))
        times[transport] = env.now - t0
    assert times["rdma"] < times["local"]
