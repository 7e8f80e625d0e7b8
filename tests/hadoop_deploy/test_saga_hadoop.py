"""Tests for the SAGA-Hadoop tool and framework plugins."""

import pytest

from repro.cluster import Machine, stampede, wrangler
from repro.hadoop_deploy import (
    FrameworkPlugin,
    SagaHadoop,
    provision_dedicated_hadoop,
    register_plugin,
)
from repro.hadoop_deploy.plugins import make_plugin
from repro.saga import Registry, Site
from repro.sim import Environment, SimulationError
from repro.spark import SparkConf
from repro.yarn import AppSpec, ApplicationState, YarnResource
from tests.conftest import FAST_RMS


@pytest.fixture()
def testbed():
    env = Environment()
    registry = Registry()
    registry.register(Site(env, stampede(num_nodes=3), rms_config=FAST_RMS))
    registry.register(Site(env, wrangler(num_nodes=2), rms_config=FAST_RMS,
                           hostname="wrangler"))
    return env, registry


def test_yarn_cluster_lifecycle(testbed):
    env, registry = testbed
    tool = SagaHadoop(env, registry, "slurm://stampede",
                      framework="yarn", nodes=2)

    def driver():
        yield from tool.start()
        metrics = tool.yarn.resource_manager.cluster_metrics()
        assert metrics["activeNodes"] == 2
        assert tool.hdfs.running
        tool.stop()
        yield tool.stopped

    env.run(env.process(driver()))
    assert not tool.yarn.running


def test_yarn_application_on_saga_hadoop_cluster(testbed):
    env, registry = testbed
    tool = SagaHadoop(env, registry, "slurm://stampede",
                      framework="yarn", nodes=2)
    outcome = {}

    def am(ctx):
        ctx.request_containers(1, YarnResource(1024, 1))
        got = yield from ctx.wait_for_containers(1)

        def task(env_, c):
            yield env_.timeout(2.0)

        yield ctx.start_container(got[0], task)
        ctx.finish("SUCCEEDED")

    def driver():
        yield from tool.start()
        client = tool.yarn.client()
        app = yield from client.submit(AppSpec(
            name="probe", am_resource=YarnResource(512, 1), am_program=am))
        report = yield from client.wait_for_completion(app)
        outcome["state"] = report.state
        tool.stop()
        yield tool.stopped

    env.run(env.process(driver()))
    assert outcome["state"] is ApplicationState.FINISHED


def test_spark_cluster_lifecycle(testbed):
    env, registry = testbed
    tool = SagaHadoop(env, registry, "slurm://stampede",
                      framework="spark", nodes=2)
    result = {}

    def driver():
        yield from tool.start()
        ctx = yield from tool.spark.context(SparkConf(
            num_executors=2, executor_cores=2))
        total = yield from ctx.parallelize(range(10), 2).reduce(
            lambda a, b: a + b)
        result["sum"] = total
        tool.stop()
        yield tool.stopped

    env.run(env.process(driver()))
    assert result["sum"] == 45


def test_configs_rendered(testbed):
    env, registry = testbed
    tool = SagaHadoop(env, registry, "slurm://stampede",
                      framework="yarn", nodes=2)

    def driver():
        yield from tool.start()
        tool.stop()
        yield tool.stopped

    env.run(env.process(driver()))
    configs = tool.plugin.rendered_configs
    assert "core-site.xml" in configs
    assert "yarn-site.xml" in configs
    assert "slaves" in configs
    assert "hdfs://" in configs["core-site.xml"]
    assert len(configs["slaves"].strip().splitlines()) == 2


def test_unknown_framework_rejected(testbed):
    env, registry = testbed
    with pytest.raises(ValueError, match="unknown framework"):
        SagaHadoop(env, registry, "slurm://stampede",
                   framework="flink").start().send(None)


def test_plugin_registration(testbed):
    env, registry = testbed

    class FlinkPlugin(FrameworkPlugin):
        name = "flink"

        def start_daemons(self, nodes):
            self.flink_started = True
            if False:
                yield None

        def stop(self):
            pass

    register_plugin("flink", FlinkPlugin)
    site = registry.lookup("stampede")
    plugin = make_plugin("flink", env, site)
    assert isinstance(plugin, FlinkPlugin)


def test_cluster_access_before_start_raises(testbed):
    env, registry = testbed
    tool = SagaHadoop(env, registry, "slurm://stampede", framework="yarn")
    with pytest.raises(RuntimeError, match="no YARN cluster"):
        tool.yarn
    with pytest.raises(RuntimeError, match="no Spark cluster"):
        tool.spark


def test_dedicated_hadoop_requires_flag(testbed):
    env, registry = testbed
    site = registry.lookup("stampede")

    def driver():
        with pytest.raises(SimulationError, match="dedicated"):
            yield env.process(provision_dedicated_hadoop(site))

    env.run(env.process(driver()))


def test_dedicated_hadoop_on_wrangler(testbed):
    env, registry = testbed
    site = registry.lookup("wrangler")

    def driver():
        yield env.process(provision_dedicated_hadoop(site))

    env.run(env.process(driver()))
    assert site.dedicated_yarn.running
    assert site.dedicated_hdfs.running
