"""A dispatch process carries on with the next task on the core it freed.

When a dispatch process settles its task and ``_pump``'s first
placement lands on the same worker, the process runs that task itself
instead of spawning one per task.  Checked here: a saturated overlay
pays exactly 6 engine events per task (a process per task paid 8);
every envelope and counter equals a spawn-per-task reference master's
on five programs; and dispatch processes never outnumber busy cores.
"""

from collections import Counter

import pytest

from repro.api import (PilotManager, RaptorConfig, Session, TaskDescription,
                       UnitManager)
from repro.cluster import stampede
from repro.raptor import overlay as overlay_module
from repro.raptor.master import RaptorMaster
from repro.saga import Registry, Site
from repro.sim import Environment
from tests.conftest import FAST_RMS
from tests.core.test_units import active_pilot


class SpawnPerTaskMaster(RaptorMaster):
    """Reference: every placement spawns its own dispatch process, so
    each process runs exactly one task (the dispatch before processes
    carried on inline)."""

    def _pump(self, own=None):
        return super()._pump()


def _overlay(workers=2, cores_per_worker=2, nodes=2, **kw):
    env = Environment()
    registry = Registry()
    registry.register(Site(env, stampede(num_nodes=nodes),
                           rms_config=FAST_RMS))
    session = Session(env, registry)
    # The agent polls every 50 s, so no periodic event falls inside a
    # sub-second task stream.
    pilot = active_pilot(env, PilotManager(session), UnitManager(session),
                         nodes=nodes, db_poll_interval=50.0)
    overlay = session.raptor(pilot, workers=workers,
                             cores_per_worker=cores_per_worker, **kw)
    env.run(overlay.ready())
    return env, session, overlay


# ------------------------------------------------------------ event count
def _stream_steps(n):
    env, _, overlay = _overlay()
    before = env.steps
    overlay.submit_tasks([TaskDescription(cpu_seconds=0.01)] * n,
                         futures=False)
    env.run(overlay.wait())
    assert overlay.stats()["tasks_completed"] == n
    return env.steps - before


def test_saturated_stream_costs_six_events_per_task():
    """Wire out and wire back (a pipe timeout plus the resume it wakes,
    each), the dispatch-overhead hold and the compute hold: no
    ``Initialize`` and no process end per task."""
    n = 200
    assert _stream_steps(2 * n) - _stream_steps(n) == 6 * n


# ------------------------------------------------------------ differential
def _saturated(env, session, overlay):
    """Mixed widths: a freed wide core takes several narrow tasks, the
    first inline and the rest in spawned processes."""
    overlay.submit_tasks([
        TaskDescription(cores=(1, 2, 4)[i % 3],
                        cpu_seconds=0.01 * (1 + i % 5))
        for i in range(150)])
    env.run(overlay.wait())


def _trickle(env, session, overlay):
    """Tasks arrive one at a time: a dispatch process whose queue is
    empty ends, and the next arrival lands on the lowest idle worker."""

    def client():
        for i in range(40):
            overlay.submit_tasks([TaskDescription(cpu_seconds=0.05)])
            yield env.timeout(0.01 * (1 + i % 4))

    env.run(env.process(client()))
    env.run(overlay.wait())
    workers = [r.worker for r in sorted(overlay.results,
                                        key=lambda r: r.started_at)]
    assert workers != sorted(workers)


def _raising(env, session, overlay):
    def payload(i):
        if i % 3 == 0:
            raise ValueError(f"bad input {i}")
        return i

    overlay.submit_tasks([
        TaskDescription(function=payload, args=(i,),
                        cpu_seconds=0.02 * (i % 2))
        for i in range(60)])
    env.run(overlay.wait())
    assert overlay.stats()["tasks_failed"] == 20


def _node_crash(env, session, overlay):
    master_node = overlay.master.node.name
    victim = sorted({w.node.name for w in overlay.master.workers
                     if w.node.name != master_node})[0]
    session.faults.node_crash(at=env.now + 0.5, node=victim,
                              duration=1000.0)
    overlay.submit_tasks([TaskDescription(cpu_seconds=0.4)] * 60)
    env.run(overlay.wait())
    assert overlay.stats()["tasks_retried"] > 0


def _close_mid_stream(env, session, overlay):
    overlay.submit_tasks([TaskDescription(cpu_seconds=0.2)] * 100)
    env.run(until=env.now + 0.5)
    env.run(overlay.close(drain=False))
    assert 0 < overlay.stats()["tasks_failed"] < 100


PROGRAMS = {
    "saturated": (_saturated, dict(workers=2, cores_per_worker=4)),
    "trickle": (_trickle, dict(workers=3, cores_per_worker=1)),
    "raising": (_raising, dict(workers=1, cores_per_worker=2)),
    "node-crash": (_node_crash, dict(workers=8, cores_per_worker=5,
                                     nodes=3)),
    "close-no-drain": (_close_mid_stream, dict(workers=4,
                                               cores_per_worker=2)),
}


def _outcome(program, shape):
    env, session, overlay = _overlay(
        config=RaptorConfig(retain_results=True), **shape)
    program(env, session, overlay)
    envelopes = [(r.tid, r.worker, r.attempts, r.started_at,
                  r.finished_at, r.ok, r.error) for r in overlay.results]
    stats = dict(overlay.stats())
    stats.pop("overlay")          # a process-global uid
    return envelopes, stats, env.now


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_inline_dispatch_matches_spawn_per_task(name, monkeypatch):
    program, shape = PROGRAMS[name]
    inline = _outcome(program, shape)
    monkeypatch.setattr(overlay_module, "RaptorMaster", SpawnPerTaskMaster)
    reference = _outcome(program, shape)
    assert inline[0] and inline == reference


# ------------------------------------------------------------ process count
def _count_dispatch_processes(monkeypatch):
    counts = Counter()
    run_task = RaptorMaster._run_task

    def tracked(gen):
        try:
            return (yield from gen)
        finally:
            counts["live"] -= 1

    def counted(self, task, worker):
        counts["live"] += 1
        counts["spawned"] += 1
        return tracked(run_task(self, task, worker))

    monkeypatch.setattr(RaptorMaster, "_run_task", counted)
    return counts


def test_dispatch_processes_never_outnumber_busy_cores(monkeypatch):
    counts = _count_dispatch_processes(monkeypatch)
    env, _, overlay = _overlay(workers=2, cores_per_worker=4)
    workers = overlay.master.workers
    overlay.submit_tasks([
        TaskDescription(cores=(1, 2, 4)[i % 3], cpu_seconds=0.01)
        for i in range(300)], futures=False)
    done = overlay.wait()
    seen = []

    def monitor():
        while not done.triggered:
            busy = sum(w.cores - w.free_cores for w in workers)
            seen.append((counts["live"], busy))
            yield env.timeout(0.003)

    env.process(monitor())
    env.run(done)
    assert len(seen) > 100
    assert all(live <= busy for live, busy in seen)
    assert max(live for live, _ in seen) > 1
    assert counts["live"] == 0
    assert counts["spawned"] < 300 // 2


def test_uniform_stream_spawns_one_process_per_core(monkeypatch):
    counts = _count_dispatch_processes(monkeypatch)
    env, _, overlay = _overlay(workers=2, cores_per_worker=2)
    overlay.submit_tasks([TaskDescription(cpu_seconds=0.01)] * 200,
                         futures=False)
    env.run(overlay.wait())
    assert overlay.stats()["tasks_completed"] == 200
    assert counts == {"spawned": 4, "live": 0}
