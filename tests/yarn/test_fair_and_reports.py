"""Tests for the FairScheduler policy and RM REST-style listings."""

import pytest

from repro.cluster import Machine, stampede
from repro.sim import Environment
from repro.yarn import (
    AppSpec,
    ApplicationState,
    CapacityPolicy,
    FairPolicy,
    FifoPolicy,
    YarnCluster,
    YarnConfig,
    YarnResource,
)
from tests.yarn.test_yarn import simple_am, submit_and_wait


def make_yarn(num_nodes=2, policy=None):
    env = Environment()
    machine = Machine(env, stampede(num_nodes=num_nodes))
    cluster = YarnCluster(env, machine, machine.nodes,
                          config=YarnConfig(), policy=policy)
    env.run(env.process(cluster.start()))
    return env, cluster


class App:
    """What a policy reads of an ``AppRecord``."""

    def __init__(self, seq, mb, queue="default"):
        self.seq = seq
        self.app_id = f"application_{seq:04d}"
        self.usage = YarnResource(mb, 1)
        self.queue = queue


def test_policies_receive_apps_in_submission_order():
    """The ``app_order`` contract: input is the RM's runnable index,
    pre-ordered by ``seq``; FIFO hands it back as is, Capacity
    round-robins its queues (by name) FIFO within each."""
    apps = [App(1, 0, "b"), App(2, 0, "a"), App(3, 0, "b"), App(4, 0, "b")]
    assert list(FifoPolicy().app_order(apps)) == apps
    capacity = CapacityPolicy({"a": 0.5, "b": 0.5})
    assert [a.seq for a in capacity.app_order(apps)] == [2, 1, 3, 4]


def test_fair_policy_orders_by_usage():
    policy = FairPolicy()

    # The RM hands policies its runnable index: already in seq order.
    apps = [App(1, 4000), App(2, 100), App(3, 2000), App(4, 100)]
    ordered = policy.app_order(apps)
    assert [a.app_id for a in ordered] == [
        "application_0002", "application_0004", "application_0003",
        "application_0001"]


def test_fair_policy_weights():
    policy = FairPolicy(weights={"gold": 4.0})

    # gold has 4x the weight: 4000MB/4 = 1000 effective < plain 2000
    gold = App(1, 4000, "gold")
    plain = App(2, 2000, "default")
    assert policy.app_order([gold, plain])[0] is gold


def test_fair_policy_weight_validation():
    with pytest.raises(ValueError, match="positive"):
        FairPolicy(weights={"q": 0.0})


def test_fair_policy_balances_two_hungry_apps():
    env, cluster = make_yarn(num_nodes=2, policy=FairPolicy())
    grants = {"a": 0, "b": 0}

    def make_am(name, done_evt):
        def am(ctx):
            # keep asking; count what we actually get over a window
            ctx.request_containers(20, YarnResource(4096, 1))
            got = []
            while len(got) < 4:
                granted, _ = yield from ctx.allocate()
                got.extend(granted)
                grants[name] = len(got)

            def task(env_, c):
                yield env_.timeout(60.0)

            for c in got:
                ctx.start_container(c, task)
            done_evt.succeed()
            yield ctx.env.timeout(100.0)
            ctx.finish()
        return am

    client = cluster.client()
    done_a, done_b = env.event(), env.event()

    def driver():
        yield from client.submit(AppSpec(
            name="a", am_resource=YarnResource(512, 1),
            am_program=make_am("a", done_a)))
        yield from client.submit(AppSpec(
            name="b", am_resource=YarnResource(512, 1),
            am_program=make_am("b", done_b)))
        yield env.all_of([done_a, done_b])

    env.run(env.process(driver()))
    # both made progress side by side rather than FIFO starving one
    assert grants["a"] >= 4 and grants["b"] >= 4


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
