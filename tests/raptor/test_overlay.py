"""RaptorOverlay end-to-end: ready, stream, wait, close, telemetry."""

import pytest

from repro.api import RaptorConfig, TaskDescription
from tests.core.test_units import active_pilot


def overlay_on(stack, workers=6, **kw):
    env, registry, session, pmgr, umgr = stack
    pilot = active_pilot(env, pmgr, umgr)
    overlay = session.raptor(pilot, workers=workers, **kw)
    env.run(overlay.ready())
    return env, session, overlay


def test_session_raptor_builds_started_overlay(stack):
    env, session, overlay = overlay_on(stack)
    assert overlay.master.node is not None and not overlay.master.closed
    assert len(overlay.master.workers) == 6
    assert overlay.master_unit is not None
    assert len(overlay.worker_units) == 6
    stats = overlay.stats()
    assert stats["workers_registered"] == 6
    assert stats["tasks_submitted"] == 0


def test_task_stream_with_futures(stack):
    env, session, overlay = overlay_on(stack)
    futures = overlay.submit_tasks([
        TaskDescription(function=lambda i=i: i * 2, cpu_seconds=0.05,
                        name=f"t{i}")
        for i in range(40)])
    assert len(futures) == 40
    env.run(overlay.wait(futures))
    values = [f.result() for f in futures]
    assert all(v.ok for v in values)
    assert [v.result for v in values] == [i * 2 for i in range(40)]
    # every envelope names the worker that served it
    assert all(v.worker.startswith("rworker.") for v in values)
    stats = overlay.stats()
    assert stats["tasks_completed"] == 40
    assert stats["tasks_failed"] == 0


def test_results_retained_in_completion_order(stack):
    env, session, overlay = overlay_on(stack)
    futures = overlay.submit_tasks([
        TaskDescription(cpu_seconds=0.1) for _ in range(20)])
    env.run(overlay.wait(futures))
    finished = [r.finished_at for r in overlay.master.results]
    assert len(finished) == 20
    assert finished == sorted(finished)


def test_wait_without_futures_uses_counters(stack):
    env, session, overlay = overlay_on(
        stack, config=RaptorConfig(retain_results=False))
    handles = overlay.submit_tasks(
        [TaskDescription(cpu_seconds=0.05)] * 100, futures=False)
    assert handles is None
    env.run(overlay.wait())
    assert overlay.stats()["tasks_completed"] == 100
    assert overlay.master.results == []          # retain_results off


def test_task_payload_exception_fails_only_that_task(stack):
    env, session, overlay = overlay_on(stack)

    def boom():
        raise RuntimeError("payload bug")

    futures = overlay.submit_tasks([
        TaskDescription(function=boom),
        TaskDescription(function=lambda: 42),
    ])
    env.run(overlay.wait(futures))
    assert not futures[0].result().ok
    assert "payload bug" in futures[0].result().error
    assert futures[1].result().ok and futures[1].result().result == 42


def test_close_drains_outstanding_tasks(stack):
    env, session, overlay = overlay_on(stack)
    futures = overlay.submit_tasks(
        [TaskDescription(cpu_seconds=0.5)] * 30)
    done = overlay.close(drain=True)
    env.run(done)
    assert all(f.result().ok for f in futures)
    assert overlay.master.closed and not overlay.master.failed
    # clean shutdown: master and every worker CU completed
    assert overlay.master_unit.state.value == "Done"
    for unit in overlay.worker_units:
        final = overlay._worker_umgr.final_unit(unit)
        assert final.state.value == "Done"


def test_close_without_drain_fails_outstanding_futures(stack):
    env, session, overlay = overlay_on(stack)
    futures = overlay.submit_tasks(
        [TaskDescription(cpu_seconds=60.0)] * 20)
    env.run(overlay.close(drain=False))
    settled = [f.result() for f in futures]
    assert any(not r.ok for r in settled)
    assert all("closed" in r.error for r in settled if not r.ok)


def test_submit_after_close_raises(stack):
    env, session, overlay = overlay_on(stack)
    env.run(overlay.close())
    with pytest.raises(RuntimeError, match="closed"):
        overlay.submit_tasks([TaskDescription()])


def test_submission_latency_is_modeled(stack):
    env, session, overlay = overlay_on(
        stack, config=RaptorConfig(submit_latency=1.5,
                                   dispatch_overhead_seconds=0.0))
    t0 = env.now
    futures = overlay.submit_tasks([TaskDescription()])
    env.run(overlay.wait(futures))
    # one client->master latency plus wire time; no compute
    assert env.now - t0 >= 1.5


def test_wide_task_capped_at_worker_budget(stack):
    env, session, overlay = overlay_on(stack, workers=4,
                                       cores_per_worker=2)
    futures = overlay.submit_tasks([
        TaskDescription(cores=8, cpu_seconds=1.0)])
    env.run(overlay.wait(futures))
    assert futures[0].result().ok


def test_overlay_telemetry_counters_and_latency(stack):
    env, registry, session, pmgr, umgr = stack
    telemetry = session.telemetry           # install before the run
    pilot = active_pilot(env, pmgr, umgr)
    overlay = session.raptor(pilot, workers=6)
    env.run(overlay.ready())
    futures = overlay.submit_tasks(
        [TaskDescription(cpu_seconds=0.05)] * 25)
    env.run(overlay.wait(futures))
    assert telemetry.counter("raptor.tasks_submitted").total == 25
    assert telemetry.counter("raptor.tasks_completed").total == 25
    assert telemetry.counter("raptor.workers_registered").total == 6
    hist = telemetry.histogram("raptor.task_latency")
    assert hist.count == 25 and hist.min > 0


def test_overlay_rejects_bad_shapes(stack):
    env, registry, session, pmgr, umgr = stack
    pilot = active_pilot(env, pmgr, umgr)
    with pytest.raises(ValueError, match="worker"):
        session.raptor(pilot, workers=0)


def test_same_seed_same_schedule(stack):
    """The overlay is deterministic: identical runs, identical times."""

    def one_run():
        from repro.api import PilotManager, Session, UnitManager
        from repro.cluster import stampede
        from repro.saga import Registry, Site
        from repro.sim import Environment
        from tests.conftest import FAST_RMS

        env = Environment()
        registry = Registry()
        registry.register(Site(env, stampede(num_nodes=3),
                               rms_config=FAST_RMS))
        session = Session(env, registry)
        pilot = active_pilot(env, PilotManager(session),
                             UnitManager(session))
        overlay = session.raptor(pilot, workers=6)
        env.run(overlay.ready())
        futures = overlay.submit_tasks(
            [TaskDescription(cpu_seconds=0.07)] * 50)
        env.run(overlay.wait(futures))
        return [(f.result().tid, f.result().worker,
                 f.result().finished_at) for f in futures]

    assert one_run() == one_run()
