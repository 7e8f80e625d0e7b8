"""Tests for the RM REST-style listings."""

from repro.cluster import Machine, stampede
from repro.sim import Environment
from repro.yarn import (
    AppSpec,
    ApplicationState,
    YarnCluster,
    YarnConfig,
    YarnResource,
)
from tests.yarn.test_yarn import simple_am, submit_and_wait


def make_yarn(num_nodes=2):
    env = Environment()
    machine = Machine(env, stampede(num_nodes=num_nodes))
    cluster = YarnCluster(env, machine, machine.nodes, config=YarnConfig())
    env.run(env.process(cluster.start()))
    return env, cluster


def test_application_list_shape():
    env, cluster = make_yarn()
    spec = AppSpec(name="probe", am_resource=YarnResource(512, 1),
                   am_program=simple_am(task_count=1, task_seconds=1.0))
    submit_and_wait(env, cluster, spec)
    apps = cluster.resource_manager.application_list()
    assert len(apps) == 1
    entry = apps[0]
    assert entry["name"] == "probe"
    assert entry["state"] == ApplicationState.FINISHED.value
    assert entry["runningContainers"] == 0
    assert entry["startedTime"] is not None


def test_node_reports_shape():
    env, cluster = make_yarn(num_nodes=2)
    reports = cluster.resource_manager.node_reports()
    assert len(reports) == 2
    assert all(r["state"] == "RUNNING" for r in reports)
    cluster.node_managers[0].fail()
    reports = cluster.resource_manager.node_reports()
    assert sorted(r["state"] for r in reports) == ["LOST", "RUNNING"]
