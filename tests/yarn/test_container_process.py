"""A YARN container is one process.

The NodeManager's launch process runs the payload inline, and the AM
program runs inline in the AM container's payload.  These tests pin
what that must not change (its per-unit engine step count is a row of
``tests/integration/test_event_ledger.py``): a differential against
the two-process layering
(:class:`ChildProcessNodeManager`) on fault-free programs; kills that
land on a payload inside :meth:`Node.hold` or on one that swallows its
Interrupt; and AM programs that die with their container instead of
polling the RM as zombies.
"""

import dataclasses
import gc

import pytest

from repro.api import ComputeUnitDescription, UnitState
from repro.cluster import Machine, stampede
from repro.sim import Environment
from repro.sim.engine import Interrupt, Process
from repro.yarn import (
    AmContext,
    AppSpec,
    ApplicationState,
    ContainerRequest,
    ContainerState,
    NodeManager,
    ResourceManager,
    YarnCluster,
    YarnResource,
)
from repro.yarn.records import ZERO_RESOURCE
from tests.conftest import make_stack
from tests.core.test_units import active_pilot
from tests.yarn.test_yarn import simple_am, submit_and_wait


# ------------------------------------------------------------- reference
class ChildProcessNodeManager(NodeManager):
    """The two-process container: a launch process that spawns the
    payload as a ``container-…`` child and waits on it, completing a
    separate ``done`` event.  Reference model only."""

    def start_container(self, container, payload, on_complete=None):
        done = self.env.event()

        def _runner():
            try:
                yield self.env.timeout(self.config.container_launch_seconds)
            except Interrupt:
                done.succeed(container)
                return
            container.state = ContainerState.RUNNING
            child = self.env.process(
                payload(self.env, container),
                name=f"container-{container.container_id}")
            try:
                result = yield child
            except Interrupt as intr:
                if not container.state.is_final:
                    container.state = ContainerState.KILLED
                    container.diagnostics = str(intr.cause)
                if child.is_alive:
                    child.interrupt(cause=intr.cause)
                    child.callbacks.append(lambda _event: None)
            except Exception as exc:
                container.state = ContainerState.FAILED
                container.exit_code = 1
                container.diagnostics = repr(exc)
            else:
                container.state = ContainerState.COMPLETED
                container.exit_code = 0
                container.diagnostics = ""
                container.result = result
            self._release(container)
            if on_complete is not None:
                on_complete(container)
            done.succeed(container)

        self._procs[container.container_id] = self.env.process(
            _runner(), name=f"launch-{container.container_id}")
        return done


class ChildProcessResourceManager(ResourceManager):
    """Runs every AM program as an ``am-main-…`` child of its container
    payload, as the two-process layering did.  Reference model only."""

    def submit_application(self, spec):
        program = spec.am_program

        def am_main(ctx):
            return (yield ctx.env.process(program(ctx),
                                          name=f"am-main-{ctx.app.app_id}"))

        return super().submit_application(
            dataclasses.replace(spec, am_program=am_main))


def use_child_processes(monkeypatch):
    """Build every later YarnCluster from the two-process reference."""
    monkeypatch.setattr("repro.yarn.cluster.NodeManager",
                        ChildProcessNodeManager)
    monkeypatch.setattr("repro.yarn.cluster.ResourceManager",
                        ChildProcessResourceManager)


def make_yarn(num_nodes=2):
    env = Environment()
    machine = Machine(env, stampede(num_nodes=num_nodes))
    cluster = YarnCluster(env, machine, machine.nodes)
    env.run(env.process(cluster.start()))
    return env, machine, cluster


# ------------------------------------------------------- Mode I pilots
def _mode1(n, nodes=2, horizon=None, **agent_kw):
    """``n`` units on a warm Mode I pilot; returns the engine steps from
    submission to ``horizon`` (or to the last unit), the units and the
    YARN cluster."""
    env, _registry, _session, pmgr, umgr = make_stack()
    pilot = active_pilot(env, pmgr, umgr, nodes=nodes, lrm="yarn",
                         **agent_kw)
    warm = umgr.submit_units(ComputeUnitDescription(
        cores=1, cpu_seconds=1.0, memory_mb=1024))
    env.run(umgr.wait_units(warm))
    before, t0 = env.steps, env.now
    units = umgr.submit_units([
        ComputeUnitDescription(cores=1, cpu_seconds=1.0 + i % 3,
                               memory_mb=(1024, 512, 4096)[i % 3])
        for i in range(n)])
    done = umgr.wait_units(units)
    env.run(done if horizon is None else t0 + horizon)
    assert done.processed
    assert all(u.state is UnitState.DONE for u in units)
    return env.steps - before, units, pmgr.agents[pilot.uid].lrm.yarn


def test_launch_processes_are_pruned_when_their_container_ends():
    """``NodeManager._procs`` holds the launch process of every
    container not yet final, and nothing else: a finished container's
    process is dropped, a long-lived AM's stays."""
    for reuse in (False, True):
        _, _units, yarn = _mode1(6, reuse_application_master=reuse)
        live = 0
        for nm in yarn.node_managers:
            running = [cid for cid, c in nm.containers.items()
                       if not c.state.is_final]
            assert sorted(nm._procs) == sorted(running)
            assert all(p.is_alive for p in nm._procs.values())
            live += len(running)
        assert live == (1 if reuse else 0)    # the pooled AM's container


def _mode1_observables(n, **agent_kw):
    _, units, yarn = _mode1(n, **agent_kw)
    return ([u.history for u in units],
            [(u.stderr, u.exit_code) for u in units],
            yarn.resource_manager.cluster_metrics())


@pytest.mark.parametrize("reuse", [False, True], ids=["per-unit-am",
                                                      "pooled-am"])
def test_mode1_matches_two_process_containers(monkeypatch, reuse):
    """Fault-free, the one-process container changes no simulated
    outcome: per-unit (time, state) histories and the RM's metrics are
    equal to the last bit."""
    inline = _mode1_observables(9, reuse_application_master=reuse)
    use_child_processes(monkeypatch)
    assert _mode1_observables(9, reuse_application_master=reuse) == inline


# ------------------------------------------------------ raw YARN programs
def _raw_programs():
    def crashing_task_am(ctx):
        ctx.request_containers(1, YarnResource(1024, 1))
        got = yield from ctx.wait_for_containers(1)

        def bad(env, c):
            yield env.timeout(2.0)
            raise ValueError("task blew up")

        yield ctx.start_container(got[0], bad)
        ctx.finish("SUCCEEDED")

    def crashing_am(ctx):
        yield ctx.env.timeout(1.5)
        raise RuntimeError("AM died")

    def soft_fail_am(ctx):
        yield ctx.env.timeout(1.0)
        ctx.finish("FAILED", diagnostics="business failure")

    return [simple_am(task_count=3, task_seconds=4.0),
            simple_am(task_count=5, task_seconds=1.0,
                      task_resource=YarnResource(8192, 2)),
            crashing_task_am, crashing_am, soft_fail_am]


def _raw_observables():
    env, machine, cluster = make_yarn(num_nodes=3)
    client = cluster.client()
    apps = []

    def driver():
        for i, program in enumerate(_raw_programs()):
            apps.append((yield from client.submit(AppSpec(
                name=f"app-{i}", am_resource=YarnResource(512, 1),
                am_program=program))))
        yield env.all_of([app.finished for app in apps])

    env.run(env.process(driver()))
    rm = cluster.resource_manager
    return ([(app.state, app.start_time, app.finish_time, app.diagnostics)
             for app in apps],
            [(c.container_id, c.state, c.diagnostics)
             for app in apps for c in [app.am_container]],
            rm.cluster_metrics(), env.now)


def test_raw_programs_match_two_process_containers(monkeypatch):
    inline = _raw_observables()
    use_child_processes(monkeypatch)
    assert _raw_observables() == inline


# ----------------------------------------------------------------- kills
def _task_on_other_node(env, cluster, payload, at):
    """Run one task container on the node the AM is *not* on; call
    ``at(container, nm)`` once it is ``RUNNING`` and 5 s into its
    payload.  Returns (app, container, nm, outcome) after the app ends."""
    seen = {}

    def am(ctx):
        other = next(nm.name for nm in cluster.node_managers
                     if nm.name != ctx.am_container.node_name)
        ctx.add_container_request(ContainerRequest(
            resource=YarnResource(1024, 1), preferred_nodes=(other,),
            relax_locality=False))
        got = yield from ctx.wait_for_containers(1)
        seen["container"] = got[0]
        launch = ctx.start_container(got[0], payload)
        assert isinstance(launch, Process)
        seen["outcome"] = yield launch
        ctx.finish("SUCCEEDED")

    def trigger():
        while "container" not in seen or \
                seen["container"].state is not ContainerState.RUNNING:
            yield env.timeout(0.5)
        yield env.timeout(5.0)
        container = seen["container"]
        at(container, cluster.node_manager(container.node_name))

    env.process(trigger())
    app, report = submit_and_wait(env, cluster, AppSpec(
        name="victim", am_resource=YarnResource(512, 1), am_program=am))
    container = seen["container"]
    return app, container, cluster.node_manager(container.node_name), \
        seen["outcome"]


def _holding(machine):
    """A payload that holds its container's node for 100 s."""
    def payload(env, container):
        yield from machine.node_by_name(container.node_name).hold(100.0)
    return payload


def _kill(container, nm):
    nm.kill_container(container.container_id, ContainerState.KILLED,
                      "killed by test")


def _kill_then_fail(container, nm):
    _kill(container, nm)
    nm.node.fail()


def _fail_then_kill(container, nm):
    nm.node.fail()
    _kill(container, nm)


def _kill_on_failure_event(container, nm):
    # After the node's holder-set subscriber: the launch process has a
    # NodeDied interrupt pending when the kill interrupts it again.
    nm.node.failure_event().callbacks.append(
        lambda _event: _kill(container, nm))
    nm.node.fail()


@pytest.mark.parametrize("at", [_kill_then_fail, _fail_then_kill,
                                _kill_on_failure_event],
                         ids=["kill-then-fail", "fail-then-kill",
                              "kill-on-failure-event"])
def test_same_instant_kill_and_node_death_end_killed(at):
    """Both interrupts reach the one launch process that holds the
    node; the container ends KILLED once, and no ledger drifts."""
    env, machine, cluster = make_yarn(num_nodes=2)
    app, container, nm, outcome = _task_on_other_node(
        env, cluster, _holding(machine), at)
    assert env._crashed is None
    assert outcome is container
    assert container.state is ContainerState.KILLED
    assert container.diagnostics == "killed by test"
    assert app.state is ApplicationState.FINISHED
    assert nm.node._holding == {}
    assert nm._procs == {} and nm.containers == {}
    assert nm.used == ZERO_RESOURCE
    assert app.usage == ZERO_RESOURCE and app.live_containers == {}
    rm = cluster.resource_manager
    live = [n for n in cluster.node_managers if n.alive]
    metrics = rm.cluster_metrics()
    assert metrics["allocatedMB"] == sum(n.used.memory_mb for n in live)
    assert metrics["allocatedVirtualCores"] == \
        sum(n.used.vcores for n in live)


def test_payload_that_swallows_its_interrupt_stays_killed():
    env, machine, cluster = make_yarn(num_nodes=2)
    caught = []

    def stubborn(env_, c):
        try:
            yield env_.timeout(100.0)
        except Interrupt as intr:
            caught.append((env_.now, intr.cause))
        return "finished anyway"

    app, container, nm, outcome = _task_on_other_node(
        env, cluster, stubborn, _kill)
    assert len(caught) == 1
    assert container.state is ContainerState.KILLED
    assert container.exit_code is None
    assert not hasattr(container, "result")
    assert nm._procs == {} and nm.used == ZERO_RESOURCE


def test_killed_am_container_leaves_no_zombie_am(monkeypatch):
    """The AM program dies with its container: nothing of a final app
    keeps polling the RM or stays scheduled."""
    env, machine, cluster = make_yarn(num_nodes=2)
    calls = []
    allocate, add_request = AmContext.allocate, \
        AmContext.add_container_request

    def spy_allocate(ctx):
        calls.append(("allocate", ctx.app.state, env.now))
        return (yield from allocate(ctx))

    def spy_request(ctx, request):
        calls.append(("request", ctx.app.state, env.now))
        add_request(ctx, request)

    def greedy_am(ctx):
        while True:       # keeps asking; releases whatever it is given
            ctx.request_containers(1, YarnResource(1024, 1))
            granted, _ = yield from ctx.allocate()
            for container in granted:
                ctx.release_container(container)

    monkeypatch.setattr(AmContext, "allocate", spy_allocate)
    monkeypatch.setattr(AmContext, "add_container_request", spy_request)
    client = cluster.client()

    def driver():
        app = yield from client.submit(AppSpec(
            name="greedy", am_resource=YarnResource(512, 1),
            am_program=greedy_am))
        while app.state is not ApplicationState.RUNNING:
            yield env.timeout(1.0)
        yield env.timeout(10.0)
        am = app.am_container
        cluster.node_manager(am.node_name).kill_container(
            am.container_id, ContainerState.KILLED, "AM killed")
        yield app.finished
        return app

    app = env.run(env.process(driver()))
    killed_at = env.now
    env.run(until=killed_at + 50.0)
    assert app.state is ApplicationState.FAILED
    assert calls and all(state is ApplicationState.RUNNING
                         and when <= killed_at for _, state, when in calls)
    gc.collect()
    ids = {app.app_id, app.am_container.container_id}
    assert not [p for p in gc.get_objects()
                if type(p) is Process and p.env is env and p.is_alive
                and any(i in p.name for i in ids)]
    for nm in cluster.node_managers:
        assert nm._procs == {} and nm.used == ZERO_RESOURCE
