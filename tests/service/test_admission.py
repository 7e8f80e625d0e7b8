"""Admission control: quotas, bounded queues, explicit backpressure."""

import pytest

from repro.core.description import DescriptionError
from repro.service import RequestState, TenantAccount, TenantQuota, Ticket
from repro.service.admission import ADMITTED, REJECTED, THROTTLED
from repro.sim import Environment


def test_quota_validation():
    TenantQuota().validate()
    for bad in (dict(max_sessions=0), dict(max_pending=0),
                dict(max_in_flight=0), dict(weight=0),
                dict(throttle_watermark=0.0),
                dict(throttle_watermark=1.5)):
        with pytest.raises(DescriptionError):
            TenantQuota(**bad).validate()


def test_session_quota_is_enforced():
    account = TenantAccount("t", TenantQuota(max_sessions=2))
    assert account.admit_session() and account.admit_session()
    assert not account.admit_session()
    assert account.sessions_opened == 2
    assert account.sessions_rejected == 1
    account.session_closed()
    assert account.admit_session()  # capacity freed by the close


def test_bounded_queue_rejects_then_recovers():
    account = TenantAccount("t", TenantQuota(max_pending=4,
                                             throttle_watermark=0.5))
    decisions = [account.admit() for _ in range(6)]
    # 2 plain admits, then over the 0.5 watermark, then queue-full
    assert decisions == [ADMITTED, ADMITTED, THROTTLED, THROTTLED,
                         REJECTED, REJECTED]
    assert account.pending == 4 and account.rejected == 2
    account.dispatched()
    assert account.pending == 3 and account.in_flight == 1
    # below max_pending again -> admitted (still above watermark)
    assert account.admit() == THROTTLED


def test_in_flight_cap_bounds_total_outstanding():
    account = TenantAccount("t", TenantQuota(
        max_pending=10, max_in_flight=2, throttle_watermark=1.0))
    for _ in range(2):
        account.admit()
        account.dispatched()
    assert account.in_flight == 2
    # pending + in_flight hits max_pending + max_in_flight only after
    # the queue itself fills; until then submissions queue up
    for _ in range(10):
        assert account.admit() != REJECTED
    assert account.admit() == REJECTED


def test_settled_accounting():
    account = TenantAccount("t", TenantQuota())
    account.admit()
    account.dispatched()
    account.settled(ok=True)
    account.admit()
    account.dispatched()
    account.settled(ok=False)
    assert account.completed == 1 and account.failed == 1
    assert account.in_flight == 0
    snap = account.snapshot()
    assert snap["completed"] == 1 and snap["failed"] == 1


def test_ticket_lifecycle_and_latencies():
    env = Environment()
    ticket = Ticket(env, "ticket.000001", "t", "t/1", payload=[])
    assert ticket.state == RequestState.QUEUED
    assert ticket.submit_latency is None
    env.run(until=2.0)
    ticket.submitted_at = env.now
    env.run(until=5.0)
    ticket._settle(env.now, RequestState.DONE)
    assert ticket.state == "Done" and ticket.finished_at == 5.0
    assert ticket.submit_latency == pytest.approx(2.0)


def test_request_state_finality():
    assert RequestState.is_final(RequestState.DONE)
    assert RequestState.is_final(RequestState.REJECTED)
    assert not RequestState.is_final(RequestState.QUEUED)
    assert not RequestState.is_final(RequestState.SUBMITTED)
