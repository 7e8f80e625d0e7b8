"""PilotService: async submission, batching, lifecycle, query surface."""


import pytest

from repro.api import ComputeUnitDescription, RaptorConfig, TaskDescription
from repro.experiments.calibration import agent_config
from repro.experiments.harness import Testbed
from repro.service import (
    PilotService,
    RequestState,
    ServiceConfig,
    TenantQuota,
)


@pytest.fixture()
def served():
    """(env, testbed, service with pilot + overlay attached)."""
    testbed = Testbed("stampede", num_nodes=3, seed=7)
    service = PilotService(testbed.session, ServiceConfig(
        tick_interval=0.5, max_batch_per_tick=64))
    pilot, _, _ = testbed.start_pilot(
        nodes=2, agent_config=agent_config("fork"))
    service.add_pilots(pilot)
    overlay = testbed.session.raptor(
        pilot, workers=8, config=RaptorConfig(retain_results=False))
    testbed.env.run(overlay.ready())
    service.attach_overlay(overlay)
    yield testbed.env, testbed, service
    testbed.env.run(overlay.close(drain=True))


TASK = TaskDescription(cpu_seconds=1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        ServiceConfig(tick_interval=0).validate()
    with pytest.raises(ValueError):
        ServiceConfig(max_batch_per_tick=0).validate()


def test_unknown_tenant_and_endpoint_raise(served):
    env, testbed, service = served
    with pytest.raises(KeyError, match="unknown tenant"):
        service.open_session("nobody")
    with pytest.raises(KeyError, match="unknown endpoint"):
        service.query("/bogus")
    with pytest.raises(KeyError, match="unknown tenant"):
        service.query("/tenants/nobody")
    with pytest.raises(KeyError, match="unknown session"):
        service.register_tenant("t")
        service.query("/tenants/t/sessions/99")


def test_submission_is_non_blocking_and_batched(served):
    """Tickets return at the submission instant; dispatch happens later
    at a phase-aligned tick, for all queued requests at once."""
    env, testbed, service = served
    service.register_tenant("t")
    sess = service.open_session("t")
    t0 = env.now
    tickets = [sess.submit_raptor([TASK]) for _ in range(5)]
    assert env.now == t0                      # no sim time consumed
    assert all(t.state == RequestState.QUEUED for t in tickets)
    env.run(service.quiesced())
    # every ticket was dispatched at the same drain tick, on the grid
    submits = {t.submitted_at for t in tickets}
    assert len(submits) == 1
    (submit_at,) = submits
    assert submit_at % 0.5 == pytest.approx(0.0, abs=1e-9)
    assert all(t.state == RequestState.DONE for t in tickets)


def test_unit_tickets_settle(served):
    env, testbed, service = served
    service.register_tenant("t")
    sess = service.open_session("t")
    ticket = sess.submit_units(ComputeUnitDescription(
        executable="/bin/date", cpu_seconds=1.0))
    env.run(service.quiesced())
    assert ticket.state == RequestState.DONE
    assert ticket.finished_at > ticket.enqueued_at


def test_session_lifecycle_and_drained(served):
    env, testbed, service = served
    service.register_tenant("t")
    sess = service.open_session("t")
    sess.submit_raptor([TASK])
    sess.close()
    assert sess.state == "Closing"            # work still in flight
    with pytest.raises(RuntimeError, match="Closing"):
        sess.submit_raptor([TASK])
    env.run(service.quiesced())
    assert sess.state == "Closed"
    assert sess.closed_at is not None
    assert service.query("/sessions")["byState"] == {"Closed": 1}


def test_rejected_work_is_reported_never_dropped(served):
    env, testbed, service = served
    service.register_tenant("t", TenantQuota(max_pending=2,
                                             throttle_watermark=1.0))
    sess = service.open_session("t")
    tickets = [sess.submit_raptor([TASK]) for _ in range(4)]
    rejected = [t for t in tickets if t.state == RequestState.REJECTED]
    assert len(rejected) == 2
    assert all(t.finished_at == env.now and t.detail for t in rejected)
    # the rejection is visible on every query surface
    assert service.query("/tenants/t")["rejected"] == 2
    assert service.query("/metrics")["tickets"]["rejected"] == 2
    by_state = service.query("/tenants/t/sessions/1")["ticketsByState"]
    assert by_state["Rejected"] == 2
    env.run(service.quiesced())
    assert [t.state for t in tickets if t not in rejected] == \
        [RequestState.DONE, RequestState.DONE]


def test_rejected_session_accepts_no_work(served):
    env, testbed, service = served
    service.register_tenant("t", TenantQuota(max_sessions=1))
    first = service.open_session("t")
    second = service.open_session("t")
    assert not first.rejected and second.rejected
    with pytest.raises(RuntimeError, match="Rejected"):
        second.submit_raptor([TASK])
    assert service.query("/sessions")["byState"]["Rejected"] == 1


def test_query_surface_shapes_and_canonical_json(served):
    env, testbed, service = served
    service.register_tenant("t")
    sess = service.open_session("t")
    sess.submit_raptor([TASK, TASK])
    env.run(service.quiesced())

    root = service.query("/")
    assert root["endpoints"] == list(service.ENDPOINTS)
    tenants = service.query("/tenants")["tenants"]
    assert [t["name"] for t in tenants] == ["t"]
    one = service.query("/tenants/t/sessions")
    assert [s["id"] for s in one["sessions"]] == ["t/1"]
    detail = service.query("/tenants/t/sessions/1")
    assert detail["tickets"] == 1 and detail["outstanding"] == 0
    metrics = service.query("/metrics")
    assert metrics["submitLatency"]["count"] == 1
    assert metrics["tickets"]["outstanding"] == 0
    assert metrics["sessions"]["peakOpen"] == 1


def test_idle_service_adds_no_events():
    """The drain loop parks while idle instead of ticking forever: an
    idle service adds ~zero events over the world's own background
    (1000 tick intervals pass; a polling loop would add >= 1000)."""

    def idle_events(with_service):
        testbed = Testbed("stampede", num_nodes=3, seed=7)
        if with_service:
            service = PilotService(testbed.session,
                                   ServiceConfig(tick_interval=0.5))
            service.register_tenant("t")
        before = testbed.env._seq
        testbed.env.run(until=testbed.env.now + 500.0)
        return testbed.env._seq - before

    assert idle_events(True) - idle_events(False) < 10


def test_quiesced_fires_immediately_when_idle(served):
    env, testbed, service = served
    event = service.quiesced()
    assert event.triggered
