"""PilotService: one long-lived process multiplexing tenant sessions.

The multi-tenant service layer over the RADICAL-Pilot core: tenants
open lightweight :class:`ServiceSession` handles against one service
instance and submit raptor function tasks and compute units
*asynchronously* —
every submission returns a :class:`~repro.service.admission.Ticket`
immediately and the work is dispatched later, in batches, by the
service's drain loop.  The moving parts:

* **admission control** (:mod:`repro.service.admission`): per-tenant
  quotas bound every queue; over-quota work is settled ``Rejected``
  (reported, never dropped) and backpressure is signalled with the
  ``Throttled`` state above a watermark;
* **fair share** (:mod:`repro.service.fairshare`): each sim tick drains
  at most ``max_batch_per_tick`` requests via weighted deficit
  round-robin across the tenant queues;
* **batched dispatch**: the drain loop's :class:`~repro.sim.Ticker`
  parks while idle and ticks at phase-aligned instants while
  backlogged, so an idle service costs zero events and a busy one
  submits work in amortized batches instead of per-call;
* **query surface**: a REST-style ``query("/tenants/<id>/sessions")``
  API modeled on the YARN RM endpoints, returning canonical JSON.

Latency accounting runs through :mod:`repro.telemetry.metrics`
histograms on a service-private registry (enqueue->dispatch and
enqueue->settle, in simulated seconds).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence

from repro.core.description import ComputeUnitDescription, Description
from repro.core.states import UnitState
from repro.core.unit_manager import UnitManager
from repro.service.admission import (
    REJECTED,
    THROTTLED,
    RequestState,
    TenantAccount,
    TenantQuota,
    Ticket,
)
from repro.service.fairshare import WeightedDeficitRoundRobin
from repro.sim.engine import Event, Ticker
from repro.telemetry.metrics import MetricsRegistry

#: Histogram bounds for enqueue->dispatch latency (seconds).
SUBMIT_LATENCY_BOUNDS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
                         5.0, 10.0, 30.0, 60.0)
#: Histogram bounds for enqueue->settle latency (seconds).
COMPLETION_LATENCY_BOUNDS = (1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
                             250.0, 500.0, 1000.0, 2500.0, 5000.0,
                             10000.0)


@dataclass
class ServiceConfig(Description):
    """Tunables of one :class:`PilotService` instance."""

    #: Batch-drain cadence (simulated seconds); dispatches happen at
    #: phase-aligned multiples of this while a backlog exists.
    tick_interval: float = 0.05
    #: Global dispatch budget per tick, across all tenants.
    max_batch_per_tick: int = 256
    #: Deficit round-robin quantum (requests per tenant per visit).
    drr_quantum: float = 8.0
    #: Quota applied to tenants registered without an explicit one.
    default_quota: Optional[TenantQuota] = None

    def _check(self) -> None:
        self._require(self.tick_interval > 0,
                      "tick_interval must be positive")
        self._require(self.max_batch_per_tick >= 1,
                      "max_batch_per_tick must be >= 1")
        self._require(self.drr_quantum > 0,
                      "drr_quantum must be positive")
        if self.default_quota is not None:
            self.default_quota.validate()


class ServiceSession:
    """One tenant session: a lightweight submission handle.

    States: ``Open`` -> ``Closing`` (close requested, work in flight)
    -> ``Closed``; or ``Rejected`` when admission refused the open.
    """

    __slots__ = ("service", "tenant", "sid", "index", "state",
                 "opened_at", "closed_at", "tickets", "outstanding")

    def __init__(self, service: "PilotService", tenant: str, sid: str,
                 index: int, rejected: bool = False):
        self.service = service
        self.tenant = tenant
        self.sid = sid
        self.index = index
        self.state = "Rejected" if rejected else "Open"
        self.opened_at = service.env.now
        self.closed_at: Optional[float] = None
        self.tickets: List[Ticket] = []
        self.outstanding = 0

    @property
    def rejected(self) -> bool:
        return self.state == "Rejected"

    # ------------------------------------------------------------ submission
    def submit_raptor(self, tasks: Sequence[Any]) -> Ticket:
        """Queue raptor function tasks for the service's overlay."""
        if self.service._overlay is None:
            raise RuntimeError(
                f"service {self.service.uid} has no raptor overlay "
                f"attached; call attach_overlay() first")
        return self.service._submit(self, list(tasks))

    def submit_units(self, descriptions) -> Ticket:
        """Queue compute units for the service's shared pilots."""
        if self.service._umgr is None:
            raise RuntimeError(
                f"service {self.service.uid} has no pilots; "
                f"call add_pilots() first")
        if isinstance(descriptions, ComputeUnitDescription):
            descriptions = [descriptions]
        return self.service._submit(self, list(descriptions), "units")

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Stop accepting work; the session reaches ``Closed`` once its
        in-flight tickets settle."""
        if self.state in ("Closed", "Rejected"):
            return
        if self.outstanding:
            self.state = "Closing"
        else:
            self.service._session_closed(self)

    # --------------------------------------------------------------- queries
    def snapshot(self) -> Dict[str, Any]:
        """Canonical JSON-able view (the query surface's row format)."""
        by_state: Dict[str, int] = {}
        for ticket in self.tickets:
            by_state[ticket.state] = by_state.get(ticket.state, 0) + 1
        return {
            "id": self.sid,
            "tenant": self.tenant,
            "state": self.state,
            "openedTime": self.opened_at,
            "closedTime": self.closed_at,
            "tickets": len(self.tickets),
            "outstanding": self.outstanding,
            "ticketsByState": by_state,
        }


class PilotService:
    """The long-lived multi-tenant service (one per simulated process).

    Built over a caller-provided :class:`~repro.core.session.Session`;
    a raptor overlay is attached for the function-task requests, pilots
    added with ``add_pilots`` serve unit requests, and tenant work flows
    through admission -> fair-share -> batched dispatch.
    """

    def __init__(self, session, config: Optional[ServiceConfig] = None):
        self.session = session
        self.env = session.env
        self.config = (config or ServiceConfig()).validate()
        self.uid = session.next_uid("service")
        self.metrics = MetricsRegistry(self.env)
        self._overlay = None
        self._umgr: Optional[UnitManager] = None   # built by add_pilots
        self._accounts: Dict[str, TenantAccount] = {}
        self._drr = WeightedDeficitRoundRobin(self.config.drr_quantum)
        self._queues: Dict[str, Deque[Ticket]] = {}
        self._sessions: Dict[str, ServiceSession] = {}
        self._session_counters: Dict[str, int] = {}
        self._outstanding = 0         # queued + in-flight tickets
        self._ticker = Ticker(self.env, self.config.tick_interval)
        self._quiesce_waiters: List[Event] = []
        self._submit_hist = self.metrics.histogram(
            "service.submit_latency", bounds=SUBMIT_LATENCY_BOUNDS)
        self._complete_hist = self.metrics.histogram(
            "service.completion_latency",
            bounds=COMPLETION_LATENCY_BOUNDS)
        self._open_gauge = self.metrics.gauge("service.open_sessions")
        self._proc = self.env.process(self._drain_loop(),
                                      name=f"{self.uid}-drain")

    # ------------------------------------------------------------- capacity
    def attach_overlay(self, overlay) -> None:
        """Attach a raptor overlay serving raptor-kind requests."""
        self._overlay = overlay

    def add_pilots(self, pilots) -> None:
        """Add shared pilot capacity serving unit-kind requests."""
        if self._umgr is None:
            self._umgr = UnitManager(self.session)
        self._umgr.add_pilots(pilots)

    # -------------------------------------------------------------- tenants
    def register_tenant(self, name: str,
                        quota: Optional[TenantQuota] = None
                        ) -> TenantAccount:
        """Register a tenant (idempotent; re-registration updates the
        quota and fair-share weight)."""
        if quota is None:
            quota = self.config.default_quota or TenantQuota()
        account = self._accounts.get(name)
        if account is None:
            account = TenantAccount(name, quota)
            self._accounts[name] = account
            self._queues[name] = deque()
            self._session_counters[name] = 0
        else:
            account.quota = quota.validate()
        self._drr.register(name, quota.weight)
        return account

    def open_session(self, tenant: str) -> ServiceSession:
        """Open a session for ``tenant`` (non-blocking).

        Over-quota opens return a session in the ``Rejected`` state —
        an explicit, queryable outcome rather than an exception or a
        silent drop.
        """
        account = self._accounts.get(tenant)
        if account is None:
            raise KeyError(f"unknown tenant {tenant!r}; "
                           f"register_tenant() first")
        self._session_counters[tenant] += 1
        index = self._session_counters[tenant]
        sid = f"{tenant}/{index}"
        admitted = account.admit_session()
        sess = ServiceSession(self, tenant, sid, index,
                              rejected=not admitted)
        self._sessions[sid] = sess
        if admitted:
            self._open_gauge.add(1)
        return sess

    # ------------------------------------------------------------ submission
    def _submit(self, sess: ServiceSession, payload: List[Any],
                kind: str = "raptor") -> Ticket:
        if sess.state not in ("Open",):
            raise RuntimeError(
                f"session {sess.sid} is {sess.state}; cannot submit")
        account = self._accounts[sess.tenant]
        ticket = Ticket(self.env, self.session.next_uid("ticket", width=6),
                        sess.tenant, sess.sid, payload, kind)
        sess.tickets.append(ticket)
        decision = account.admit()
        if decision == REJECTED:
            ticket._settle(self.env.now, RequestState.REJECTED,
                           "tenant pending queue full")
            self.metrics.counter("service.rejected").inc()
            return ticket
        if decision == THROTTLED:
            ticket.state = RequestState.THROTTLED
            self.metrics.counter("service.throttled").inc()
        self.metrics.counter("service.submitted").inc()
        sess.outstanding += 1
        self._outstanding += 1
        self._queues[sess.tenant].append(ticket)
        self._ticker.wake()
        return ticket

    # --------------------------------------------------------- drain loop
    def _drain_loop(self):
        """Batched dispatch: park while idle, tick while backlogged.

        Ticks land on the service's :class:`~repro.sim.engine.Ticker`
        grid, so runs are deterministic regardless of when submissions
        arrive between ticks, and each tick dispatches at most
        ``max_batch_per_tick`` tickets.
        """
        cfg = self.config
        while True:
            yield from self._ticker.tick(lambda: any(self._queues.values()))
            batch = self._drr.drain(self._queues, cfg.max_batch_per_tick)
            for _tenant, ticket in batch:
                self._dispatch(ticket)

    def _dispatch(self, ticket: Ticket) -> None:
        now = self.env.now
        account = self._accounts[ticket.tenant]
        account.dispatched()
        ticket.submitted_at = now
        ticket.state = RequestState.SUBMITTED
        self._submit_hist.observe(now - ticket.enqueued_at)
        if ticket.kind == "units":
            units = self._umgr.submit_units(ticket.payload)
            self._umgr.wait_units(units).callbacks.append(
                lambda _e, t=ticket, us=units: self._settle_units(t, us))
            return
        futures = self._overlay.submit_tasks(ticket.payload, futures=True)
        self.env.all_of([f.wait() for f in futures]).callbacks.append(
            lambda _e, t=ticket, fs=futures: self._settle_raptor(t, fs))

    # ------------------------------------------------------------ settlement
    def _settle_units(self, ticket: Ticket, units) -> None:
        failed = sum(1 for u in units if u.state is not UnitState.DONE)
        self._settle(ticket, ok=failed == 0,
                     detail="" if failed == 0
                     else f"{failed}/{len(units)} units not Done")

    def _settle_raptor(self, ticket: Ticket, futures) -> None:
        failed = sum(1 for f in futures if not f.result().ok)
        self._settle(ticket, ok=failed == 0,
                     detail="" if failed == 0
                     else f"{failed}/{len(futures)} tasks failed")

    def _settle(self, ticket: Ticket, ok: bool, detail: str) -> None:
        now = self.env.now
        account = self._accounts[ticket.tenant]
        account.settled(ok)
        ticket._settle(now, RequestState.DONE if ok
                       else RequestState.FAILED, detail)
        self._complete_hist.observe(now - ticket.enqueued_at)
        self.metrics.counter("service.completed" if ok
                             else "service.failed").inc()
        sess = self._sessions[ticket.session_id]
        sess.outstanding -= 1
        if sess.outstanding == 0 and sess.state == "Closing":
            self._session_closed(sess)
        self._outstanding -= 1
        if self._outstanding == 0:
            waiters, self._quiesce_waiters = self._quiesce_waiters, []
            for event in waiters:
                if not event.triggered:
                    event.succeed(self)

    def _session_closed(self, sess: ServiceSession) -> None:
        sess.state = "Closed"
        sess.closed_at = self.env.now
        self._accounts[sess.tenant].session_closed()
        self._open_gauge.add(-1)

    # -------------------------------------------------------------- waiting
    def quiesced(self) -> Event:
        """Event firing when no ticket is queued or in flight."""
        event = Event(self.env)
        if self._outstanding == 0:
            event.succeed(self)
        else:
            self._quiesce_waiters.append(event)
        return event

    @property
    def peak_open_sessions(self) -> int:
        """High-water mark of concurrently open sessions."""
        peak = self._open_gauge.max()
        return 0 if peak is None else int(peak)

    # ---------------------------------------------------------- query surface
    #: The registered endpoint shapes (YARN-RM style).
    ENDPOINTS = ("/", "/tenants", "/tenants/<tenant>",
                 "/tenants/<tenant>/sessions",
                 "/tenants/<tenant>/sessions/<n>", "/sessions",
                 "/metrics")

    def query(self, path: str) -> Dict[str, Any]:
        """Serve one REST-style endpoint; raises ``KeyError`` on
        unknown paths or entities.  Shapes mirror the YARN RM webservice
        (``/ws/v1/cluster/...``) the repo's YARN model exposes."""
        parts = [p for p in path.split("/") if p]
        if not parts:
            return {"service": self.uid,
                    "endpoints": list(self.ENDPOINTS)}
        if parts[0] == "tenants":
            if len(parts) == 1:
                return {"tenants": [a.snapshot()
                                    for a in self._accounts.values()]}
            account = self._accounts.get(parts[1])
            if account is None:
                raise KeyError(f"unknown tenant {parts[1]!r}")
            if len(parts) == 2:
                return account.snapshot()
            if parts[2] == "sessions":
                sessions = [s for s in self._sessions.values()
                            if s.tenant == parts[1]]
                if len(parts) == 3:
                    return {"sessions": [s.snapshot()
                                         for s in sessions]}
                if len(parts) == 4:
                    sess = self._sessions.get(f"{parts[1]}/{parts[3]}")
                    if sess is None:
                        raise KeyError(
                            f"unknown session {parts[1]}/{parts[3]}")
                    return sess.snapshot()
        elif parts == ["sessions"]:
            by_state: Dict[str, int] = {}
            for sess in self._sessions.values():
                by_state[sess.state] = by_state.get(sess.state, 0) + 1
            return {"count": len(self._sessions),
                    "peakOpen": self.peak_open_sessions,
                    "byState": by_state,
                    "sessions": [s.snapshot()
                                 for s in self._sessions.values()]}
        elif parts == ["metrics"]:
            return self._metrics_snapshot()
        raise KeyError(f"unknown endpoint {path!r}; "
                       f"known: {', '.join(self.ENDPOINTS)}")

    def _counter(self, name: str) -> float:
        return self.metrics.counter(name).total

    def _metrics_snapshot(self) -> Dict[str, Any]:
        def hist(h) -> Dict[str, Any]:
            pcts = h.percentiles((50, 95, 99))
            return {"count": h.count, "mean": h.mean,
                    "p50": pcts[50], "p95": pcts[95], "p99": pcts[99]}
        open_now = self._open_gauge.value
        return {
            "submitLatency": hist(self._submit_hist),
            "completionLatency": hist(self._complete_hist),
            "tickets": {
                "submitted": self._counter("service.submitted"),
                "throttled": self._counter("service.throttled"),
                "rejected": self._counter("service.rejected"),
                "completed": self._counter("service.completed"),
                "failed": self._counter("service.failed"),
                "outstanding": self._outstanding,
            },
            "sessions": {
                "open": 0 if open_now is None else int(open_now),
                "peakOpen": self.peak_open_sessions,
                "total": len(self._sessions),
            },
        }
