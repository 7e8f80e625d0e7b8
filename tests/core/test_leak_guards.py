"""Nothing nobody observes is scheduled or retained.

Count-based guards (they repeat exactly; no timing): a node's failure
event holds one callback per piece of in-flight work and no more, the
number of live kernel objects after a run does not depend on how many
tasks ran, a node crash walks the in-flight callbacks only, and a fork
unit costs a pinned number of engine steps.
"""

import gc

from repro.api import ComputeUnitDescription, TaskDescription
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
def _fork_units(n):
    env, session, pmgr, umgr, pilot = _world()
    agent = pmgr.agents[pilot.uid]
    scheduler = agent.backend.scheduler
    units = umgr.submit_units(
        [ComputeUnitDescription(cores=1, cpu_seconds=0.5)] * n)
    done = umgr.wait_units(units)

    def sample():
        # (callbacks on the failure event, cores the agent holds busy)
        return max(
            (len(node.failure_event().callbacks)
             - (node.num_cores - scheduler._free[node.name]))
            for node in agent.lrm.nodes)

    excess = _watch(env, done, sample)
    env.run(done)
    assert all(u.state.value == "Done" for u in units)
    return env, agent, excess


def test_fork_failure_callbacks_bounded_by_busy_cores():
    env, agent, excess = _fork_units(2000)
    assert len(excess) > 100
    assert max(excess) <= 0
    assert all(node.failure_event().callbacks == []
               for node in agent.lrm.nodes)
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
#: events then, and its unobserved final event since (``wait_units``
#: waits on the logical unit's event, not the handle's).
PARENT_STEPS_DELTA_200 = 3300


def _fork_steps(n):
    env, session, pmgr, umgr, pilot = _world()
    before = env.steps
    units = umgr.submit_units(
        [ComputeUnitDescription(cores=1, cpu_seconds=0.5)] * n)
    env.run(umgr.wait_units(units))
    return env.steps - before


def test_fork_unit_costs_seven_fewer_steps_than_parent():
    n = 200
    assert _fork_steps(2 * n) - _fork_steps(n) \
        == PARENT_STEPS_DELTA_200 - 7 * n


# ----------------------------------------------------------------- raptor
def _raptor_stream(n, cores_per_worker=1):
    env, session, pmgr, umgr, pilot = _world()
    overlay = session.raptor(pilot, workers=1,
                             cores_per_worker=cores_per_worker)
    env.run(overlay.ready())
    worker = overlay.master.workers[0]
    node = worker.node
    # parked on the node for the overlay's lifetime: the worker service,
    # plus the master service when first-fit packed it alongside
    parked = 1 + (overlay.master.node is node)
    futures = overlay.submit_tasks(
        [TaskDescription(cpu_seconds=0.01)] * n)
    done = overlay.wait(futures)
    excess = _watch(
        env, done,
        lambda: len(node.failure_event().callbacks)
        - len(worker.running) - parked,
        every=0.004)
    env.run(done)
    assert all(f.result().ok for f in futures)
    assert worker.tasks_served == n
    return env, overlay, worker, parked, excess


def test_raptor_failure_callbacks_bounded_by_in_flight_tasks():
    env, overlay, worker, parked, excess = _raptor_stream(2000)
    assert len(excess) > 100
    assert max(excess) <= 0
    failure = worker.node.failure_event()
    assert len(failure.callbacks) == parked
    env.run(overlay.close())              # the parked services let go too
    assert failure.callbacks == []


def test_raptor_live_objects_independent_of_task_count():
    small_env, small_overlay, *_ = _raptor_stream(200)
    small = _live(small_env, *_kinds(small_env))
    big_env, big_overlay, *_ = _raptor_stream(2000)
    assert _live(big_env, *_kinds(big_env)) == small
    small_env.run(small_overlay.close())
    big_env.run(big_overlay.close())


def test_node_crash_walks_only_the_in_flight_callbacks():
    env, overlay, worker, parked, _ = _raptor_stream(
        2000, cores_per_worker=4)
    node = worker.node
    futures = overlay.submit_tasks([TaskDescription(cpu_seconds=50.0)] * 4)
    env.run(until=env.now + 1.0)          # all four are mid-compute
    assert len(worker.running) == 4
    failure = node.failure_event()
    in_flight = len(worker.running) + parked
    assert len(failure.callbacks) == in_flight
    ran = []
    for i, callback in enumerate(list(failure.callbacks)):
        failure.callbacks[i] = \
            lambda e, cb=callback: (ran.append(cb), cb(e))
    node.fail()
    env.run(until=env.now + 1.0)
    assert failure.processed
    assert len(ran) == in_flight == 4 + parked
    env.run(overlay.wait(futures))        # settled: retried or failed
