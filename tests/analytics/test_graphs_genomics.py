"""Tests for the network-science and genomics workloads.

PYTEST_DONT_REWRITE — assertion rewriting of this module trips a
CPython 3.11 ``ast`` recursion-guard bug; plain asserts work fine.
"""

import pytest

from repro.analytics.genomics import (
    count_kmers_mapreduce,
    count_kmers_reference,
    generate_reads,
    kmers_of,
)
from repro.analytics.graphs import (
    count_triangles_reference,
    count_triangles_spark,
    generate_graph,
)
from repro.cluster import Machine, stampede
from repro.hdfs import HdfsCluster
from repro.sim import Environment, SeedSequenceRegistry
from repro.spark import SparkConf, SparkStandaloneCluster
from repro.yarn import YarnCluster

EDGES = generate_graph(60, 240, seed=5)
TRUTH = count_triangles_reference(EDGES)


# --------------------------------------------------------------- graphs
def test_generate_graph_simple_and_deterministic():
    a = generate_graph(30, 60, seed=1)
    b = generate_graph(30, 60, seed=1)
    assert a == b
    assert len(a) == 60
    assert all(u < v for u, v in a)          # normalized, no self-loops
    assert len(set(a)) == len(a)             # no duplicates


def test_spark_triangle_count_matches_networkx():
    env = Environment()
    machine = Machine(env, stampede(num_nodes=2))
    cluster = SparkStandaloneCluster(env, machine, machine.nodes)
    holder = {}

    def driver():
        yield env.process(cluster.start())
        ctx = yield from cluster.context(SparkConf(
            num_executors=2, executor_cores=2))
        holder["count"] = yield from count_triangles_spark(ctx, EDGES)

    env.run(env.process(driver()))
    assert holder["count"] == TRUTH


# ------------------------------------------------------------- genomics
def test_kmers_of():
    assert kmers_of("ACGTA", 3) == ["ACG", "CGT", "GTA"]
    assert kmers_of("AC", 3) == []
    with pytest.raises(ValueError):
        kmers_of("ACGT", 0)


def test_generate_reads_shape():
    reads = generate_reads(50, read_length=80, seed=2)
    assert len(reads) == 50
    assert all(len(r) == 80 for r in reads)
    assert set("".join(reads)) <= set("ACGT")


def test_reference_counts_conserve_total():
    reads = generate_reads(30, read_length=50, seed=3)
    k = 8
    counts = count_kmers_reference(reads, k)
    assert sum(counts.values()) == 30 * (50 - k + 1)


def test_mapreduce_kmers_match_reference():
    env = Environment()
    machine = Machine(env, stampede(num_nodes=2))
    hdfs = HdfsCluster(env, machine, machine.nodes, replication=2,
                       rng=SeedSequenceRegistry(2).stream("g"))
    yarn = YarnCluster(env, machine, machine.nodes)
    reads = generate_reads(40, read_length=60, seed=7)
    k = 6
    holder = {}

    def driver():
        yield env.process(hdfs.start())
        yield env.process(yarn.start())
        counts, job = yield from count_kmers_mapreduce(
            env, hdfs, yarn, reads, k)
        holder["counts"] = counts
        holder["job"] = job

    env.run(env.process(driver()))
    assert holder["counts"] == count_kmers_reference(reads, k)
    # the combiner collapsed duplicate kmers before the shuffle
    counters = holder["job"].counters
    assert counters.combine_output_records < counters.map_output_records
