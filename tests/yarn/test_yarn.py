"""Tests for the YARN simulator: RM, NM, AM protocol, client."""

import pytest

from repro.cluster import Machine, stampede
from repro.sim import Environment
from repro.yarn import (
    AppSpec,
    ApplicationState,
    ContainerState,
    YarnCluster,
    YarnConfig,
    YarnResource,
)

CFG = YarnConfig()


def make_yarn(num_nodes=3, config=CFG):
    env = Environment()
    machine = Machine(env, stampede(num_nodes=num_nodes))
    cluster = YarnCluster(env, machine, machine.nodes, config=config)
    env.run(env.process(cluster.start()))
    return env, machine, cluster


def simple_am(task_count=2, task_seconds=5.0,
              task_resource=YarnResource(memory_mb=1024, vcores=1),
              trace=None):
    """An AM that runs `task_count` sleep tasks and finishes."""

    def am_program(ctx):
        ctx.request_containers(task_count, task_resource)
        containers = yield from ctx.wait_for_containers(task_count)
        if trace is not None:
            trace.extend(containers)

        def task(env, container):
            yield env.timeout(task_seconds)

        done = [ctx.start_container(c, task) for c in containers]
        yield ctx.env.all_of(done)
        ctx.finish("SUCCEEDED")

    return am_program


def submit_and_wait(env, cluster, spec):
    client = cluster.client()
    out = {}

    def driver():
        app = yield from client.submit(spec)
        out["app"] = app
        report = yield from client.wait_for_completion(app)
        out["report"] = report

    env.run(env.process(driver()))
    return out["app"], out["report"]


def test_application_end_to_end():
    env, machine, cluster = make_yarn()
    trace = []
    spec = AppSpec(name="sleep", am_resource=YarnResource(512, 1),
                   am_program=simple_am(task_count=3, trace=trace))
    app, report = submit_and_wait(env, cluster, spec)
    assert report.state is ApplicationState.FINISHED
    assert len(trace) == 3
    assert all(c.state is ContainerState.COMPLETED for c in trace)


def test_two_phase_allocation_costs_tens_of_seconds():
    """The AM-then-container choreography dominates CU startup (Fig. 5)."""
    env, machine, cluster = make_yarn()
    t = {}

    def am_program(ctx):
        ctx.request_containers(1, YarnResource(1024, 1))
        containers = yield from ctx.wait_for_containers(1)

        def task(env_, c):
            t["task_started"] = env_.now
            yield env_.timeout(1.0)

        yield ctx.start_container(containers[0], task)
        ctx.finish()

    spec = AppSpec(name="probe", am_resource=YarnResource(512, 1),
                   am_program=am_program)
    client = cluster.client()

    def driver():
        t["submit"] = env.now
        app = yield from client.submit(spec)
        yield from client.wait_for_completion(app)

    env.run(env.process(driver()))
    startup = t["task_started"] - t["submit"]
    # client JVM + AM alloc + AM launch + register + request cycle +
    # container launch: well above 15s, below 60s with default config
    assert 15.0 < startup < 60.0


def test_fifo_ordering():
    env, machine, cluster = make_yarn(num_nodes=1)
    # Each app's tasks fill most of the node: apps serialize.
    big = YarnResource(memory_mb=20000, vcores=4)
    order = []

    def make_am(name):
        def am(ctx):
            ctx.request_containers(1, big)
            containers = yield from ctx.wait_for_containers(1)
            order.append(name)

            def task(env_, c):
                yield env_.timeout(10.0)

            yield ctx.start_container(containers[0], task)
            ctx.finish()
        return am

    client = cluster.client()

    def driver():
        a = yield from client.submit(AppSpec(
            name="a", am_resource=YarnResource(512, 1),
            am_program=make_am("a")))
        b = yield from client.submit(AppSpec(
            name="b", am_resource=YarnResource(512, 1),
            am_program=make_am("b")))
        yield env.all_of([a.finished, b.finished])

    env.run(env.process(driver()))
    assert order == ["a", "b"]


def test_container_resource_normalization():
    env, machine, cluster = make_yarn()
    rm = cluster.resource_manager
    normalized = rm._normalize(YarnResource(memory_mb=300, vcores=1))
    assert normalized.memory_mb == 512  # rounded up to 256-increment
    assert rm._normalize(YarnResource(memory_mb=256, vcores=1)).memory_mb == 256


def test_nm_capacity_advertised_fraction():
    env, machine, cluster = make_yarn()
    nm = cluster.node_managers[0]
    # 80% of 32 GB
    assert nm.capacity.memory_mb == int(0.8 * 32 * 1024)
    assert nm.capacity.vcores == 16


def test_scheduler_never_overallocates_node():
    env, machine, cluster = make_yarn(num_nodes=1)
    nm = cluster.node_managers[0]
    max_seen = {"mb": 0}

    def am(ctx):
        # Ask for way more than one node holds.
        ctx.request_containers(10, YarnResource(memory_mb=8192, vcores=2))
        got = yield from ctx.wait_for_containers(3)
        max_seen["mb"] = max(max_seen["mb"], nm.used.memory_mb)

        def task(env_, c):
            yield env_.timeout(2.0)

        yield ctx.env.all_of([ctx.start_container(c, task) for c in got])
        ctx.finish()

    spec = AppSpec(name="greedy", am_resource=YarnResource(512, 1),
                   am_program=am)
    submit_and_wait(env, cluster, spec)
    assert max_seen["mb"] <= nm.capacity.memory_mb


def test_failed_task_container_reported():
    env, machine, cluster = make_yarn()
    seen = {}

    def am(ctx):
        ctx.request_containers(1, YarnResource(1024, 1))
        containers = yield from ctx.wait_for_containers(1)

        def bad_task(env_, c):
            yield env_.timeout(1.0)
            raise ValueError("task blew up")

        yield ctx.start_container(containers[0], bad_task)
        seen["state"] = containers[0].state
        seen["diag"] = containers[0].diagnostics
        ctx.finish("SUCCEEDED")

    spec = AppSpec(name="crashy", am_resource=YarnResource(512, 1),
                   am_program=am)
    app, report = submit_and_wait(env, cluster, spec)
    assert seen["state"] is ContainerState.FAILED
    assert "blew up" in seen["diag"]
    assert report.state is ApplicationState.FINISHED  # AM survived


def test_am_crash_fails_application():
    env, machine, cluster = make_yarn()

    def am(ctx):
        yield ctx.env.timeout(1.0)
        raise RuntimeError("AM died")

    spec = AppSpec(name="dead-am", am_resource=YarnResource(512, 1),
                   am_program=am)
    app, report = submit_and_wait(env, cluster, spec)
    assert report.state is ApplicationState.FAILED


def test_am_reports_failure_status():
    env, machine, cluster = make_yarn()

    def am(ctx):
        yield ctx.env.timeout(1.0)
        ctx.finish("FAILED", diagnostics="business failure")

    spec = AppSpec(name="soft-fail", am_resource=YarnResource(512, 1),
                   am_program=am)
    app, report = submit_and_wait(env, cluster, spec)
    assert report.state is ApplicationState.FAILED
    assert "business failure" in report.tracking_diagnostics


def test_kill_application():
    env, machine, cluster = make_yarn()

    def am(ctx):
        ctx.request_containers(1, YarnResource(1024, 1))
        yield from ctx.wait_for_containers(1)
        yield ctx.env.timeout(10000)

    client = cluster.client()

    def driver():
        app = yield from client.submit(AppSpec(
            name="victim", am_resource=YarnResource(512, 1), am_program=am))
        yield ctx_wait(app)
        client.kill(app.app_id)
        yield app.finished
        return app

    def ctx_wait(app):
        # wait until the app is running
        def waiter():
            while app.state is not ApplicationState.RUNNING:
                yield env.timeout(1.0)
        return env.process(waiter())

    p = env.process(driver())
    app = env.run(p)
    assert app.state is ApplicationState.KILLED
    # all node capacity returned
    for nm in cluster.node_managers:
        assert nm.used.memory_mb == 0


def test_nm_failure_kills_its_containers():
    env, machine, cluster = make_yarn(num_nodes=2)
    result = {}

    def am(ctx):
        # 16 GB containers cannot co-locate on a 26 GB NM: they spread.
        ctx.request_containers(2, YarnResource(16000, 1))
        got = yield from ctx.wait_for_containers(2)

        def task(env_, c):
            yield env_.timeout(100.0)

        events = [ctx.start_container(c, task) for c in got]
        yield ctx.env.timeout(15.0)
        # Fail one node that hosts a task container (not the AM's).
        am_node = ctx.am_container.node_name
        victim_node = next(c.node_name for c in got
                           if c.node_name != am_node)
        cluster.node_manager(victim_node).fail()
        yield ctx.env.all_of(events)
        result["states"] = sorted(c.state.value for c in got)
        ctx.finish()

    spec = AppSpec(name="node-loss", am_resource=YarnResource(512, 1),
                   am_program=am)
    app, report = submit_and_wait(env, cluster, spec)
    assert "killed" in result["states"]


def test_cluster_metrics_shape_and_values():
    env, machine, cluster = make_yarn(num_nodes=2)
    rm = cluster.resource_manager
    metrics = rm.cluster_metrics()
    assert metrics["totalNodes"] == 2
    assert metrics["activeNodes"] == 2
    assert metrics["totalMB"] == 2 * int(0.8 * 32 * 1024)
    assert metrics["availableMB"] == metrics["totalMB"]
    assert metrics["totalVirtualCores"] == 32
    spec = AppSpec(name="m", am_resource=YarnResource(512, 1),
                   am_program=simple_am(task_count=1, task_seconds=1.0))
    submit_and_wait(env, cluster, spec)
    metrics = rm.cluster_metrics()
    assert metrics["appsSubmitted"] == 1
    assert metrics["appsCompleted"] == 1
    assert metrics["availableMB"] == metrics["totalMB"]  # all released


def test_locality_preference_honored_when_space():
    env, machine, cluster = make_yarn(num_nodes=3)
    target = cluster.node_managers[2].name
    got_nodes = []

    def am(ctx):
        ctx.request_containers(1, YarnResource(1024, 1),
                               preferred_nodes=[target])
        got = yield from ctx.wait_for_containers(1)
        got_nodes.extend(c.node_name for c in got)

        def task(env_, c):
            yield env_.timeout(1.0)

        yield ctx.start_container(got[0], task)
        ctx.finish()

    spec = AppSpec(name="local", am_resource=YarnResource(512, 1),
                   am_program=am)
    submit_and_wait(env, cluster, spec)
    assert got_nodes == [target]


def test_locality_relaxes_when_target_full():
    env, machine, cluster = make_yarn(num_nodes=2)
    target_nm = cluster.node_managers[1]
    got_nodes = []

    def am(ctx):
        # First, fill the preferred node completely.
        fill = YarnResource(memory_mb=target_nm.capacity.memory_mb - 1024,
                            vcores=1)
        ctx.request_containers(1, fill, preferred_nodes=[target_nm.name])
        filler = yield from ctx.wait_for_containers(1)

        def long_task(env_, c):
            yield env_.timeout(500.0)

        filler_done = ctx.start_container(filler[0], long_task)
        # Now ask for more than the preferred node has left (1024 MB);
        # it fits on the other node, so delay scheduling must relax.
        ctx.request_containers(1, YarnResource(
            memory_mb=target_nm.capacity.memory_mb - 2048, vcores=1),
            preferred_nodes=[target_nm.name])
        got = yield from ctx.wait_for_containers(1)
        got_nodes.extend(c.node_name for c in got)
        ctx.release_container(got[0])
        ctx.release_container(filler[0])
        yield ctx.env.timeout(1.0)
        ctx.finish()

    spec = AppSpec(name="relax", am_resource=YarnResource(512, 1),
                   am_program=am)
    submit_and_wait(env, cluster, spec)
    assert got_nodes and got_nodes[0] != target_nm.name


def test_yarn_resource_arithmetic():
    a = YarnResource(1024, 2)
    b = YarnResource(512, 1)
    assert a.plus(b) == YarnResource(1536, 3)
    assert a.minus(b) == YarnResource(512, 1)
    assert b.fits_in(a)
    assert not a.fits_in(b)
    with pytest.raises(ValueError):
        YarnResource(-1, 1)


def test_stop_cluster_kills_running_apps():
    env, machine, cluster = make_yarn()

    def am(ctx):
        yield ctx.env.timeout(10000)

    client = cluster.client()
    out = {}

    def driver():
        app = yield from client.submit(AppSpec(
            name="stuck", am_resource=YarnResource(512, 1), am_program=am))
        out["app"] = app
        yield env.timeout(30.0)
        cluster.stop()

    env.run(env.process(driver()))
    assert out["app"].state is ApplicationState.KILLED


def test_preemption_kills_newest_container():
    env, machine, cluster = make_yarn()
    containers_seen = []

    def am(ctx):
        ctx.request_containers(2, YarnResource(1024, 1))
        got = yield from ctx.wait_for_containers(2)
        containers_seen.extend(got)

        def task(env_, c):
            yield env_.timeout(50.0)

        events = [ctx.start_container(c, task) for c in got]
        yield ctx.env.timeout(20.0)
        ctx.rm.preempt_containers(ctx.app.app_id, 1)
        yield ctx.env.all_of(events)
        ctx.finish()

    spec = AppSpec(name="preempt-me", am_resource=YarnResource(512, 1),
                   am_program=am)
    app, report = submit_and_wait(env, cluster, spec)
    states = sorted(c.state.value for c in containers_seen)
    assert states == ["completed", "preempted"]
