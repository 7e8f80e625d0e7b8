"""Nothing nobody observes is scheduled or retained.

Count-based guards (they repeat exactly; no timing): a node's failure
event holds one callback per parked service plus the node's own
holder-set subscriber, however much work is in flight; the holder set
is exactly the in-flight :meth:`Node.hold` phases; the number of live
kernel objects after a run does not depend on how many tasks ran; a
node crash interrupts exactly the holders, in entry order; and a fork
unit costs a pinned number of engine steps.
"""

import gc
from collections import Counter

from repro.api import ComputeUnitDescription, TaskDescription
from repro.cluster.node import Node
from repro.sim.engine import AnyOf, Process, Timeout
from tests.conftest import make_stack
from tests.core.test_units import active_pilot


def _world(nodes=2):
    env, _registry, session, pmgr, umgr = make_stack()
    pilot = active_pilot(env, pmgr, umgr, nodes=nodes)
    return env, session, pmgr, umgr, pilot


def _live(env, *kinds):
    """Live kernel objects of ``env`` per exact type, after a full GC."""
    gc.collect()
    counts = dict.fromkeys(kinds, 0)
    for obj in gc.get_objects():
        if type(obj) in counts and obj.env is env:
            counts[type(obj)] += 1
    return counts


def _kinds(env):
    # The sanitizer keeps every spawned process for its drain check.
    return (AnyOf, Timeout) if env.sanitizer is not None \
        else (AnyOf, Timeout, Process)


def _count_holds(monkeypatch):
    """Count in-flight :meth:`Node.hold` phases per node, independently
    of the node's own holder set."""
    phases = Counter()
    hold = Node.hold

    def counted(node, seconds):
        phases[node] += 1
        try:
            return (yield from hold(node, seconds))
        finally:
            phases[node] -= 1

    monkeypatch.setattr(Node, "hold", counted)
    return phases


def _watch(env, stop, sample, every=0.05):
    """Call ``sample()`` every ``every`` simulated seconds until ``stop``
    fires; the returned list collects what it returns."""
    seen = []

    def monitor():
        while not stop.triggered:
            seen.append(sample())
            yield env.timeout(every)

    env.process(monitor())
    return seen


# ------------------------------------------------------------- fork units
def _fork_units(n, phases=None):
    env, session, pmgr, umgr, pilot = _world()
    agent = pmgr.agents[pilot.uid]
    scheduler = agent.backend.scheduler
    phases = Counter() if phases is None else phases
    units = umgr.submit_units(
        [ComputeUnitDescription(cores=1, cpu_seconds=0.5)] * n)
    done = umgr.wait_units(units)

    def sample():
        # per node: (failure-event callbacks, holders, hold phases,
        # cores the agent holds busy)
        return [(len(node.failure_event().callbacks), len(node._holding),
                 phases[node], node.num_cores - scheduler._free[node.name])
                for node in agent.lrm.nodes]

    seen = _watch(env, done, sample)
    env.run(done)
    assert all(u.state.value == "Done" for u in units)
    return env, agent, seen


def test_fork_failure_callbacks_bounded_by_busy_cores(monkeypatch):
    """One callback per node however many units compute on it; the
    holder set is exactly the units in their compute phase."""
    phases = _count_holds(monkeypatch)
    env, agent, seen = _fork_units(2000, phases)
    rows = [row for sample in seen for row in sample]
    assert len(seen) > 100
    assert all(callbacks <= 1 for callbacks, *_ in rows)
    assert all(holding == held <= busy for _, holding, held, busy in rows)
    assert max(holding for _, holding, *_ in rows) > 1
    for node in agent.lrm.nodes:
        assert node._holding == {}
        assert node.failure_event().callbacks == [node._kill_holders]
    assert agent._unit_procs == {}


def test_fork_live_objects_independent_of_unit_count():
    small_env, _, _ = _fork_units(200)
    small = _live(small_env, *_kinds(small_env))
    big_env, _, _ = _fork_units(2000)
    assert _live(big_env, *_kinds(big_env)) == small


#: ``steps(2N) - steps(N)`` for N = 200 on the commit before per-state
#: events became on-demand (measured there with this exact scenario).
#: Polling events scale with the makespan, so the *difference* is what
#: is pinned: each unit stopped dispatching its 6 unobserved per-state
#: events then, its unobserved final event since (``wait_units`` waits
#: on the logical unit's event, not the handle's), and the ``AnyOf``
#: that raced its compute phase against node death since
#: (:meth:`Node.hold`).
PARENT_STEPS_DELTA_200 = 3300

#: Part of that delta was no unit's cost: both sites' batch schedulers
#: ticked an idle 0.5 s cycle (a Timeout and its AnyOf) through the
#: 4.8 s of extra makespan.  The schedulers now run only when kicked.
PARENT_IDLE_CYCLE_STEPS_200 = 38


def _fork_steps(n):
    env, session, pmgr, umgr, pilot = _world()
    before = env.steps
    units = umgr.submit_units(
        [ComputeUnitDescription(cores=1, cpu_seconds=0.5)] * n)
    env.run(umgr.wait_units(units))
    return env.steps - before


def test_fork_unit_costs_eight_fewer_steps_than_parent():
    n = 200
    assert _fork_steps(2 * n) - _fork_steps(n) \
        == PARENT_STEPS_DELTA_200 - PARENT_IDLE_CYCLE_STEPS_200 - 8 * n


# ----------------------------------------------------------------- raptor
def _raptor_stream(n, cores_per_worker=1, phases=None):
    env, session, pmgr, umgr, pilot = _world()
    overlay = session.raptor(pilot, workers=1,
                             cores_per_worker=cores_per_worker)
    env.run(overlay.ready())
    worker = overlay.master.workers[0]
    node = worker.node
    phases = Counter() if phases is None else phases
    # parked on the node for the overlay's lifetime: the worker service,
    # plus the master service when first-fit packed it alongside
    parked = 1 + (overlay.master.node is node)
    futures = overlay.submit_tasks(
        [TaskDescription(cpu_seconds=0.01)] * n)
    done = overlay.wait(futures)
    seen = _watch(
        env, done,
        lambda: (len(node.failure_event().callbacks), len(node._holding),
                 phases[node], len(worker.running)),
        every=0.004)
    env.run(done)
    assert all(f.result().ok for f in futures)
    assert worker.tasks_served == n
    return env, overlay, worker, parked, seen


def test_raptor_failure_callbacks_bounded_by_in_flight_tasks(monkeypatch):
    """Parked services plus one holder-set subscriber, however many
    tasks are in flight; the holder set is exactly the tasks in their
    dispatch or compute phase."""
    phases = _count_holds(monkeypatch)
    env, overlay, worker, parked, seen = _raptor_stream(
        2000, cores_per_worker=4, phases=phases)
    assert len(seen) > 100
    assert all(callbacks <= parked + 1 for callbacks, *_ in seen)
    assert all(holding == held <= running
               for _, holding, held, running in seen)
    assert max(holding for _, holding, *_ in seen) > 1
    node = worker.node
    assert node._holding == {}
    failure = node.failure_event()
    assert len(failure.callbacks) == parked + 1
    env.run(overlay.close())              # the parked services let go too
    assert failure.callbacks == [node._kill_holders]


def test_raptor_live_objects_independent_of_task_count():
    small_env, small_overlay, *_ = _raptor_stream(200)
    small = _live(small_env, *_kinds(small_env))
    big_env, big_overlay, *_ = _raptor_stream(2000)
    assert _live(big_env, *_kinds(big_env)) == small
    small_env.run(small_overlay.close())
    big_env.run(big_overlay.close())


def test_node_crash_walks_only_the_in_flight_callbacks(monkeypatch):
    """The failure event runs the parked services' callbacks and the
    holder-set subscriber; that one interrupts exactly the holders, in
    the order they entered."""
    env, overlay, worker, parked, _ = _raptor_stream(
        2000, cores_per_worker=4)
    node = worker.node
    futures = overlay.submit_tasks([TaskDescription(cpu_seconds=50.0)] * 4)
    env.run(until=env.now + 1.0)          # all four are mid-compute
    assert len(worker.running) == 4
    holders = list(node._holding)
    assert [p.name for p in holders] == [
        f"{overlay.master.uid}-task-{tid}" for tid in sorted(worker.running)]
    failure = node.failure_event()
    assert len(failure.callbacks) == parked + 1
    ran = []
    for i, callback in enumerate(list(failure.callbacks)):
        failure.callbacks[i] = \
            lambda e, cb=callback: (ran.append(cb), cb(e))
    interrupted = []
    interrupt = Process.interrupt
    monkeypatch.setattr(
        Process, "interrupt",
        lambda proc, cause=None: (interrupted.append((proc, cause)),
                                  interrupt(proc, cause)))
    node.fail()
    env.run(until=env.now + 1.0)
    assert failure.processed
    assert len(ran) == parked + 1
    assert interrupted == [(proc, node) for proc in holders]
    assert node._holding == {}
    env.run(overlay.wait(futures))        # settled: retried or failed
