"""Deterministic multi-tenant load generation against one PilotService.

:func:`run_load` builds a complete simulated world (machine + pilot +
raptor overlay + service), drives an open-loop arrival process — every
tenant's session-open instants are drawn from a per-tenant named RNG
stream, so a tenant's arrivals are identical no matter which shard of a
sharded run it lands in — and returns one flat, JSON-able result row
with throughput, admission and latency-percentile numbers.

Everything here is simulation-side and seed-deterministic: wall-clock
measurement belongs to the ``service-sessions`` workload of
``benchmarks/suite``, which wraps this function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.description import Description
from repro.service.admission import TenantQuota
from repro.service.service import PilotService, ServiceConfig


@dataclass
class LoadSpec(Description):
    """One service load scenario (the unit of sharding and sweeping)."""

    #: Tenants in the *full* scenario (names ``tenant-000``...).
    tenants: int = 8
    #: Sessions each tenant opens over the arrival window.
    sessions_per_tenant: int = 16
    #: Raptor tasks submitted per session (one ticket).
    tasks_per_session: int = 2
    #: Open-loop arrival window (simulated seconds).
    arrival_window: float = 2.0
    #: Modeled compute per task; keep it longer than the arrival window
    #: so no session drains before the last one arrives (that is what
    #: makes "concurrent sessions" mean what it says).
    task_seconds: float = 5.0
    machine: str = "stampede"
    num_nodes: int = 3
    pilot_nodes: int = 2
    raptor_workers: int = 31
    seed: int = 42
    tick_interval: float = 0.05
    max_batch_per_tick: int = 256
    drr_quantum: float = 8.0
    #: Per-tenant bounded-queue size; ``None`` = effectively unbounded
    #: (the admission sweep cell sets a small value to force visible
    #: ``Rejected`` outcomes).
    max_pending: Optional[int] = None
    #: This shard's index / total shard count (shared-nothing split of
    #: the tenant set; see :mod:`repro.service.sharding`).
    shard: int = 0
    shards: int = 1

    def _check(self) -> None:
        self._require(self.tenants >= 1, "need >= 1 tenant")
        self._require(self.sessions_per_tenant >= 1,
                      "need >= 1 session per tenant")
        self._require(self.tasks_per_session >= 1,
                      "need >= 1 task per session")
        self._require(self.arrival_window > 0,
                      "arrival_window must be positive")
        self._require(self.task_seconds >= 0,
                      "task_seconds must be non-negative")
        self._require(self.raptor_workers >= 1, "need >= 1 worker")
        self._require(self.shards >= 1, "shards must be >= 1")
        self._require(0 <= self.shard < self.shards,
                      "shard must be in [0, shards)")
        if self.max_pending is not None:
            self._require(self.max_pending >= 1,
                          "max_pending must be >= 1")

    def tenant_names(self) -> List[str]:
        """This shard's tenants (all of them for an unsharded run)."""
        from repro.service.sharding import shard_of
        names = [f"tenant-{i:03d}" for i in range(self.tenants)]
        if self.shards == 1:
            return names
        return [n for n in names
                if shard_of(n, self.shards) == self.shard]


def _arrivals(spec: LoadSpec, session) -> List[Tuple[float, str]]:
    """Sorted (time, tenant) arrival instants, drawn per tenant.

    Per-tenant named streams make a tenant's draws independent of which
    other tenants share the world — the sharding determinism tests rely
    on this.
    """
    out: List[Tuple[float, str]] = []
    for tenant in spec.tenant_names():
        stream = session.rng.stream(f"service.load.{tenant}")
        out.extend((stream.uniform(0.0, spec.arrival_window), tenant)
                   for _ in range(spec.sessions_per_tenant))
    out.sort()
    return out


def run_load(spec: LoadSpec) -> Dict[str, Any]:
    """Run one load scenario to quiescence; returns a flat result row."""
    from repro.api import RaptorConfig, TaskDescription
    from repro.experiments.calibration import agent_config
    from repro.experiments.harness import Testbed

    spec.validate()
    tenants = spec.tenant_names()
    testbed = Testbed(spec.machine, num_nodes=spec.num_nodes,
                      seed=spec.seed)
    env = testbed.env
    service = PilotService(testbed.session, ServiceConfig(
        tick_interval=spec.tick_interval,
        max_batch_per_tick=spec.max_batch_per_tick,
        drr_quantum=spec.drr_quantum))
    quota = TenantQuota() if spec.max_pending is None \
        else TenantQuota(max_pending=spec.max_pending)
    for tenant in tenants:
        service.register_tenant(tenant, quota)

    overlay = None
    if tenants:
        pilot, _, _ = testbed.start_pilot(
            nodes=spec.pilot_nodes, agent_config=agent_config("fork"))
        service.add_pilots(pilot)
        overlay = testbed.session.raptor(
            pilot, workers=spec.raptor_workers,
            config=RaptorConfig(retain_results=False))
        env.run(overlay.ready())
        service.attach_overlay(overlay)

    t_start = env.now

    def drive():
        task = TaskDescription(cpu_seconds=spec.task_seconds)
        for at, tenant in _arrivals(spec, testbed.session):
            if t_start + at > env.now:
                yield env.timeout(t_start + at - env.now)
            sess = service.open_session(tenant)
            if sess.rejected:
                continue
            sess.submit_raptor([task] * spec.tasks_per_session)
            # Sessions close themselves once their work settles, which
            # is what makes the open-session gauge a concurrency count.
            sess.close()

    env.run(env.process(drive(), name="service-load"))
    env.run(service.quiesced())
    makespan = env.now - t_start
    metrics = service.query("/metrics")
    sessions = service.query("/sessions")
    tenants_view = service.query("/tenants")["tenants"]
    if overlay is not None:
        env.run(overlay.close(drain=True))

    by_state = sessions["byState"]
    row: Dict[str, Any] = {
        "shard": spec.shard,
        "shards": spec.shards,
        "tenants": len(tenants),
        "sessions_opened": sum(t["sessionsOpened"] for t in tenants_view),
        "sessions_rejected": sum(t["sessionsRejected"]
                                 for t in tenants_view),
        "sessions_closed": by_state.get("Closed", 0),
        "peak_concurrent_sessions": sessions["peakOpen"],
        "tickets_submitted": int(metrics["tickets"]["submitted"]),
        "tickets_throttled": int(metrics["tickets"]["throttled"]),
        "tickets_rejected": int(metrics["tickets"]["rejected"]),
        "tickets_completed": int(metrics["tickets"]["completed"]),
        "tickets_failed": int(metrics["tickets"]["failed"]),
        "makespan": makespan,
    }
    for name, hist in (("submit", metrics["submitLatency"]),
                       ("completion", metrics["completionLatency"])):
        for p in (50, 95, 99):
            value = hist[f"p{p}"]
            row[f"{name}_p{p}"] = 0.0 if value is None else float(value)
    return row
