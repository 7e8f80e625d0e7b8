"""§III-A end-to-end: "an application written for ... Spark (e.g.
PySpark, DataFrame and MLlib applications) can be executed on HPC
resources" via SAGA-Hadoop."""

import numpy as np
import pytest

from repro.analytics import generate_points, kmeans_reference
from repro.cluster import stampede
from repro.hadoop_deploy import SagaHadoop
from repro.saga import Registry, Site
from repro.sim import Environment
from repro.spark import (
    KMeansModel,
    LinearRegressionModel,
    SparkConf,
    create_dataframe,
)
from tests.conftest import FAST_RMS


@pytest.fixture()
def spark_on_hpc():
    env = Environment()
    registry = Registry()
    registry.register(Site(env, stampede(num_nodes=2), rms_config=FAST_RMS))
    tool = SagaHadoop(env, registry, "slurm://stampede",
                      framework="spark", nodes=2)
    holder = {}

    def boot():
        yield from tool.start()
        holder["ctx"] = yield from tool.spark.context(SparkConf(
            num_executors=2, executor_cores=4))

    env.run(env.process(boot()))
    yield env, tool, holder["ctx"]
    tool.stop()


def test_dataframe_application_on_saga_hadoop(spark_on_hpc):
    env, tool, ctx = spark_on_hpc
    rows = [{"sensor": f"s{i % 3}", "value": float(i)} for i in range(30)]
    df = (create_dataframe(ctx, rows, 4)
          .where(lambda r: r["value"] >= 6.0)
          .group_by("sensor")
          .agg({"value": "avg"}))
    holder = {}

    def query():
        holder["out"] = yield from df.collect()

    env.run(env.process(query()))
    out = {r["sensor"]: r["value_avg"] for r in holder["out"]}
    expected = {}
    for sensor in ("s0", "s1", "s2"):
        values = [r["value"] for r in rows
                  if r["sensor"] == sensor and r["value"] >= 6.0]
        expected[sensor] = sum(values) / len(values)
    assert out == pytest.approx(expected)


def test_mllib_application_on_saga_hadoop(spark_on_hpc):
    env, tool, ctx = spark_on_hpc
    points = generate_points(200, 3, seed=12)
    holder = {}

    def train():
        model = yield from KMeansModel.train(
            ctx.parallelize([p for p in points], 4), 3, iterations=2)
        holder["centroids"] = model.centroids

    env.run(env.process(train()))
    assert np.allclose(holder["centroids"],
                       kmeans_reference(points, 3, iterations=2))


def test_regression_application_on_saga_hadoop(spark_on_hpc):
    env, tool, ctx = spark_on_hpc
    rng = np.random.default_rng(9)
    X = rng.uniform(size=(100, 2))
    y = X @ np.array([1.5, -0.5]) + 2.0
    holder = {}

    def train():
        model = yield from LinearRegressionModel.train(
            ctx.parallelize([(x, float(t)) for x, t in zip(X, y, strict=True)], 4))
        holder["w"] = model.weights

    env.run(env.process(train()))
    assert np.allclose(holder["w"], [1.5, -0.5, 2.0], atol=1e-8)
