"""Tests for the Spark standalone cluster and RDD engine."""

import pytest

from repro.cluster import Machine, stampede
from repro.sim import Environment, SimulationError
from repro.spark import SparkConf, SparkStandaloneCluster


def make_spark(num_nodes=2, conf=None):
    env = Environment()
    machine = Machine(env, stampede(num_nodes=num_nodes))
    cluster = SparkStandaloneCluster(env, machine, machine.nodes)
    holder = {}

    def boot():
        yield env.process(cluster.start())
        ctx = yield from cluster.context(conf or SparkConf(
            num_executors=2, executor_cores=2))
        holder["ctx"] = ctx

    env.run(env.process(boot()))
    return env, cluster, holder["ctx"]


def run(env, gen):
    return env.run(env.process(gen))


def test_cluster_start_costs_time():
    env, cluster, ctx = make_spark()
    assert cluster.running
    # master 4s + workers 3s + executor launch 4s
    assert env.now == pytest.approx(11.0)


def test_parallelize_collect_roundtrip():
    env, cluster, ctx = make_spark()
    data = list(range(100))
    rdd = ctx.parallelize(data, 4)
    assert sorted(run(env, rdd.collect())) == data


def test_map_filter_chain():
    env, cluster, ctx = make_spark()
    rdd = ctx.parallelize(range(20), 3).map(lambda x: x * 2).filter(
        lambda x: x % 4 == 0)
    expected = sorted(x * 2 for x in range(20) if (x * 2) % 4 == 0)
    assert sorted(run(env, rdd.collect())) == expected


def test_flat_map():
    env, cluster, ctx = make_spark()
    rdd = ctx.parallelize(["a b", "c d e"], 2).flat_map(str.split)
    assert sorted(run(env, rdd.collect())) == ["a", "b", "c", "d", "e"]


def test_map_partitions():
    env, cluster, ctx = make_spark()
    rdd = ctx.parallelize(range(10), 2).map_partitions(
        lambda it: [sum(it)])
    parts = run(env, rdd.collect())
    assert sum(parts) == sum(range(10))
    assert len(parts) == 2


def test_count_and_take():
    env, cluster, ctx = make_spark()
    rdd = ctx.parallelize(range(57), 5)
    assert run(env, rdd.count()) == 57
    taken = run(env, rdd.take(5))
    assert len(taken) == 5


def test_reduce():
    env, cluster, ctx = make_spark()
    rdd = ctx.parallelize(range(1, 11), 3)
    assert run(env, rdd.reduce(lambda a, b: a + b)) == 55


def test_reduce_empty_raises():
    env, cluster, ctx = make_spark()
    rdd = ctx.parallelize([], 2)
    with pytest.raises(ValueError, match="empty"):
        run(env, rdd.reduce(lambda a, b: a + b))


def test_reduce_by_key():
    env, cluster, ctx = make_spark()
    pairs = [("a", 1), ("b", 2), ("a", 3), ("c", 4), ("b", 5)]
    rdd = ctx.parallelize(pairs, 3).reduce_by_key(lambda a, b: a + b)
    assert dict(run(env, rdd.collect())) == {"a": 4, "b": 7, "c": 4}


def test_reduce_by_key_shuffles_every_record():
    """No map-side combine: 120 records over 3 keys write 120 records'
    worth of shuffle bytes, not one per key and map partition."""
    conf = SparkConf(num_executors=2, executor_cores=2,
                     bytes_per_record=100.0)
    env, cluster, ctx = make_spark(conf=conf)
    pairs = [("abc"[i % 3], i) for i in range(120)]
    rdd = ctx.parallelize(pairs, 4).reduce_by_key(lambda a, b: a + b)
    disks = {executor.node.name: executor.node.local_disk
             for executor in ctx.executors}.values()
    before = sum(disk.write_bytes for disk in disks)
    result = dict(run(env, rdd.collect()))
    assert result == {k: sum(v for key, v in pairs if key == k)
                      for k in "abc"}
    written = sum(disk.write_bytes for disk in disks) - before
    assert written == 120 * conf.bytes_per_record


def test_group_by_key():
    env, cluster, ctx = make_spark()
    pairs = [("x", 1), ("y", 2), ("x", 3)]
    rdd = ctx.parallelize(pairs, 2).group_by_key()
    grouped = {k: sorted(v) for k, v in run(env, rdd.collect())}
    assert grouped == {"x": [1, 3], "y": [2]}


def test_distinct():
    env, cluster, ctx = make_spark()
    rdd = ctx.parallelize([1, 2, 2, 3, 3, 3], 3).distinct()
    assert sorted(run(env, rdd.collect())) == [1, 2, 3]


def test_union():
    env, cluster, ctx = make_spark()
    a = ctx.parallelize([1, 2], 1)
    b = ctx.parallelize([3, 4], 2)
    assert sorted(run(env, a.union(b).collect())) == [1, 2, 3, 4]


def test_wordcount_pipeline():
    env, cluster, ctx = make_spark()
    lines = ["the quick brown fox", "the lazy dog", "the fox"]
    counts = dict(run(env, (
        ctx.parallelize(lines, 2)
        .flat_map(str.split)
        .map(lambda w: (w, 1))
        .reduce_by_key(lambda a, b: a + b)
        .collect())))
    assert counts == {"the": 3, "quick": 1, "brown": 1, "fox": 2,
                      "lazy": 1, "dog": 1}


def test_chained_shuffles():
    env, cluster, ctx = make_spark()
    pairs = [("a", 1), ("a", 2), ("b", 3)]
    rdd = (ctx.parallelize(pairs, 2)
           .reduce_by_key(lambda a, b: a + b)     # ("a",3), ("b",3)
           .map(lambda kv: (kv[1], kv[0]))        # (3,"a"), (3,"b")
           .group_by_key())
    result = {k: sorted(v) for k, v in run(env, rdd.collect())}
    assert result == {3: ["a", "b"]}


def test_shuffle_requires_pairs():
    env, cluster, ctx = make_spark()
    rdd = ctx.parallelize([1, 2, 3], 2).reduce_by_key(lambda a, b: a)
    with pytest.raises(TypeError, match="pairs"):
        run(env, rdd.collect())


def test_cache_avoids_recompute():
    env, cluster, ctx = make_spark()
    calls = []

    def tracked(x):
        calls.append(x)
        return x

    rdd = ctx.parallelize(range(10), 2).map(tracked).cache()
    run(env, rdd.count())
    first = len(calls)
    run(env, rdd.count())
    assert len(calls) == first  # second action served from cache


def test_uncached_recomputes():
    env, cluster, ctx = make_spark()
    calls = []

    def tracked(x):
        calls.append(x)
        return x

    rdd = ctx.parallelize(range(10), 2).map(tracked)
    run(env, rdd.count())
    run(env, rdd.count())
    assert len(calls) == 20


def test_shuffle_reuse_across_actions():
    env, cluster, ctx = make_spark()
    rdd = ctx.parallelize([("a", 1), ("a", 2)], 2).reduce_by_key(
        lambda a, b: a + b)
    run(env, rdd.collect())
    n_outputs = len(ctx._shuffle_outputs)
    run(env, rdd.collect())
    assert len(ctx._shuffle_outputs) == n_outputs  # not re-run


def test_cpu_cost_scales_runtime():
    env1, _, ctx1 = make_spark()
    t0 = env1.now
    run(env1, ctx1.parallelize(range(100), 2).count())
    cheap = env1.now - t0

    conf = SparkConf(num_executors=2, executor_cores=2,
                     cpu_seconds_per_record=0.5)
    env2, _, ctx2 = make_spark(conf=conf)
    t0 = env2.now
    run(env2, ctx2.parallelize(range(100), 2).count())
    costly = env2.now - t0
    assert costly > cheap + 1.0


def test_executor_capacity_respected():
    env, cluster, ctx = make_spark()
    # 2 executors x 2 cores = 4 slots; 8 tasks of 1s CPU each need 2 waves
    conf_records_per_part = 1
    for executor in ctx.executors:
        assert executor.slots.capacity == 2


def test_stop_releases_executors():
    env, cluster, ctx = make_spark()
    worker_cores_before = [w.cores_free for w in cluster.workers]
    ctx.stop()
    worker_cores_after = [w.cores_free for w in cluster.workers]
    assert sum(worker_cores_after) > sum(worker_cores_before)
    with pytest.raises(SimulationError):
        run(env, ctx.parallelize([1], 1).collect())


def test_no_capacity_no_executors():
    env = Environment()
    machine = Machine(env, stampede(num_nodes=1))
    cluster = SparkStandaloneCluster(env, machine, machine.nodes)

    def boot():
        yield env.process(cluster.start())
        with pytest.raises(SimulationError, match="no executors"):
            yield from cluster.context(SparkConf(
                num_executors=1, executor_cores=64))  # node has 16

    env.run(env.process(boot()))


def test_master_stop_all():
    env, cluster, ctx = make_spark()
    cluster.stop()
    assert not cluster.master.running
    assert all(not w.running for w in cluster.workers)
