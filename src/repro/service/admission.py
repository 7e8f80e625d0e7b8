"""Admission control: per-tenant quotas, bounded queues, backpressure.

The service's first line of defense against unbounded growth: every
request a tenant submits becomes a :class:`Ticket` that is either
*admitted* into the tenant's bounded queue, *throttled* (admitted, but
the tenant is above its backpressure watermark and should slow down),
or *rejected* outright (queue full / over quota).  Rejections are
first-class results — the ticket settles in the ``Rejected`` state and
is counted, never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.description import Description
from repro.sim.engine import Environment


class RequestState:
    """Lifecycle of one service request (a :class:`Ticket`).

    ``QUEUED``/``THROTTLED`` -> ``SUBMITTED`` -> ``DONE``/``FAILED``,
    or straight to ``REJECTED`` when admission refuses the request.
    """

    QUEUED = "Queued"
    THROTTLED = "Throttled"
    SUBMITTED = "Submitted"
    DONE = "Done"
    FAILED = "Failed"
    REJECTED = "Rejected"

    FINAL = (DONE, FAILED, REJECTED)

    @classmethod
    def is_final(cls, state: str) -> bool:
        return state in cls.FINAL


#: Admission decisions (`admit()` return values).
ADMITTED = "admitted"
THROTTLED = "throttled"
REJECTED = "rejected"


@dataclass
class TenantQuota(Description):
    """What one tenant may hold open against the service at once."""

    #: Concurrent open sessions (an over-quota ``open_session`` is
    #: rejected, visibly).
    max_sessions: int = 100_000
    #: Queued-but-not-yet-dispatched requests (the bounded queue).
    max_pending: int = 100_000
    #: Dispatched-but-unfinished requests (in-flight cap; submissions
    #: above it queue up but the queue bound still applies).
    max_in_flight: int = 1_000_000
    #: Fair-share weight for the deficit round-robin dispatcher.
    weight: float = 1.0
    #: Fraction of ``max_pending`` above which admissions are flagged
    #: ``Throttled`` — accepted, but the caller is told to back off.
    throttle_watermark: float = 0.75

    def _check(self) -> None:
        self._require(self.max_sessions >= 1,
                      "max_sessions must be >= 1")
        self._require(self.max_pending >= 1, "max_pending must be >= 1")
        self._require(self.max_in_flight >= 1,
                      "max_in_flight must be >= 1")
        self._require(self.weight > 0, "weight must be positive")
        self._require(0.0 < self.throttle_watermark <= 1.0,
                      "throttle_watermark must be in (0, 1]")


class Ticket:
    """One asynchronous service request: a batch of raptor tasks or of
    compute units, and its admission, dispatch and settlement record."""

    __slots__ = ("uid", "tenant", "session_id", "kind", "state",
                 "detail", "enqueued_at", "submitted_at", "finished_at",
                 "payload")

    def __init__(self, env: Environment, uid: str, tenant: str,
                 session_id: str, payload: Any, kind: str = "raptor"):
        self.uid = uid
        self.tenant = tenant
        self.session_id = session_id
        self.kind = kind              # "raptor" | "units"
        self.payload = payload
        self.state = RequestState.QUEUED
        self.detail = ""
        self.enqueued_at = env.now
        self.submitted_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    def _settle(self, now: float, state: str, detail: str = "") -> None:
        self.state = state
        self.detail = detail
        self.finished_at = now

    @property
    def submit_latency(self) -> Optional[float]:
        """Enqueue-to-dispatch latency (None while queued/rejected)."""
        if self.submitted_at is None:
            return None
        return self.submitted_at - self.enqueued_at


class TenantAccount:
    """Admission bookkeeping for one registered tenant."""

    __slots__ = ("name", "quota", "open_sessions", "pending", "in_flight",
                 "sessions_opened", "sessions_rejected", "submitted",
                 "throttled", "rejected", "completed", "failed")

    def __init__(self, name: str, quota: TenantQuota):
        self.name = name
        self.quota = quota.validate()
        self.open_sessions = 0
        self.pending = 0
        self.in_flight = 0
        self.sessions_opened = 0
        self.sessions_rejected = 0
        self.submitted = 0      # tickets admitted (incl. throttled)
        self.throttled = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0

    # ------------------------------------------------------------ decisions
    def admit_session(self) -> bool:
        if self.open_sessions >= self.quota.max_sessions:
            self.sessions_rejected += 1
            return False
        self.open_sessions += 1
        self.sessions_opened += 1
        return True

    def admit(self) -> str:
        """Admission decision for one new request ticket."""
        q = self.quota
        if self.pending >= q.max_pending:
            self.rejected += 1
            return REJECTED
        if self.pending + self.in_flight >= q.max_pending + q.max_in_flight:
            self.rejected += 1
            return REJECTED
        self.pending += 1
        self.submitted += 1
        if self.pending > q.throttle_watermark * q.max_pending:
            self.throttled += 1
            return THROTTLED
        return ADMITTED

    # ---------------------------------------------------------- transitions
    def dispatched(self) -> None:
        self.pending -= 1
        self.in_flight += 1

    def settled(self, ok: bool) -> None:
        self.in_flight -= 1
        if ok:
            self.completed += 1
        else:
            self.failed += 1

    def session_closed(self) -> None:
        self.open_sessions -= 1

    def snapshot(self) -> Dict[str, Any]:
        """Canonical JSON-able view for the query surface."""
        return {
            "name": self.name,
            "weight": self.quota.weight,
            "maxSessions": self.quota.max_sessions,
            "maxPending": self.quota.max_pending,
            "openSessions": self.open_sessions,
            "sessionsOpened": self.sessions_opened,
            "sessionsRejected": self.sessions_rejected,
            "pending": self.pending,
            "inFlight": self.in_flight,
            "submitted": self.submitted,
            "throttled": self.throttled,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
        }
