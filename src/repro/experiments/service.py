"""Multi-tenant service experiment cells (the ``service`` sweep grid).

Four cell kinds, all seed-deterministic rows over
:mod:`repro.service`:

* ``load`` — open-loop multi-tenant load through one
  :class:`~repro.service.service.PilotService`; throughput, concurrency
  and latency percentiles;
* ``fairshare`` — a heavy-weight and a light-weight tenant saturating
  a slow drain; shows the weighted deficit round-robin favouring the
  heavy tenant without starving the light one;
* ``admission`` — a tight per-tenant quota against an overloaded
  service; shows explicit ``Throttled``/``Rejected`` outcomes instead
  of unbounded queues;
* ``sharded`` — the same load split shared-nothing across shards, with
  the merged-aggregate digest recorded (pinned byte-identical for
  ``jobs=1`` vs ``jobs=N`` by the determinism tests).
"""

from __future__ import annotations

from typing import List

from repro.experiments.sweeps import SweepCell, make_cell
from repro.service import (
    LoadSpec,
    PilotService,
    ServiceConfig,
    TenantQuota,
    run_sharded,
)
from repro.service.workload import load


def run_service_load(seed: int = 42, tenants: int = 8,
                     sessions_per_tenant: int = 16,
                     tasks_per_session: int = 2):
    """One open-loop load scenario; returns the flat result row."""
    row = yield from load(LoadSpec(
        tenants=tenants, sessions_per_tenant=sessions_per_tenant,
        tasks_per_session=tasks_per_session, seed=seed))
    return {"kind": "load", **row}


def run_service_admission(seed: int = 42, max_pending: int = 8):
    """Overload a tightly-quota'd service: many sessions per tenant, a
    slow drain tick, and a small bounded queue, so admission control has
    to throttle and reject (both visibly accounted in the row)."""
    row = yield from load(LoadSpec(
        tenants=4, sessions_per_tenant=40, raptor_workers=8,
        tick_interval=2.0, max_pending=max_pending, seed=seed))
    if row["tickets_rejected"] == 0:
        raise RuntimeError(
            "admission cell produced no rejections; quota not binding")
    return {"kind": "admission", "max_pending": max_pending, **row}


def run_service_fairshare(seed: int = 42, heavy_weight: float = 4.0,
                          tickets_per_tenant: int = 48):
    """Two saturating tenants with a ``heavy_weight``:1 weight ratio.

    Both burst-submit the same backlog against a deliberately slow,
    small-batch drain; the heavy tenant's queue drains earlier (lower
    mean enqueue->dispatch latency) while the light tenant still makes
    progress every tick — the starvation-freedom half is pinned by the
    fair-share tests.
    """
    from repro.api import RaptorConfig, TaskDescription
    from repro.experiments.calibration import agent_config
    from repro.experiments.harness import Testbed

    # The grid cell holds int 4; the row (and so the digest) records 4.0.
    heavy_weight = float(heavy_weight)
    testbed = Testbed("stampede", num_nodes=3, seed=seed)
    env = testbed.env
    service = PilotService(testbed.session, ServiceConfig(
        tick_interval=0.5, max_batch_per_tick=8, drr_quantum=1.0))
    pilot, _, _ = testbed.start_pilot(
        nodes=2, agent_config=agent_config("fork"))
    overlay = testbed.session.raptor(
        pilot, workers=16, config=RaptorConfig(retain_results=False))
    env.run(overlay.ready())
    service.attach_overlay(overlay)

    service.register_tenant("heavy", TenantQuota(weight=heavy_weight))
    service.register_tenant("light", TenantQuota(weight=1.0))
    task = TaskDescription(cpu_seconds=0.25)
    tickets = {}
    for tenant in ("heavy", "light"):
        sess = service.open_session(tenant)
        tickets[tenant] = [sess.submit_raptor([task])
                           for _ in range(tickets_per_tenant)]
        sess.close()
    yield testbed.session
    env.run(service.quiesced())
    means = {tenant: sum(t.submit_latency for t in batch) / len(batch)
             for tenant, batch in tickets.items()}
    env.run(overlay.close(drain=True))
    return {
        "kind": "fairshare",
        "heavy_weight": heavy_weight,
        "tickets_per_tenant": tickets_per_tenant,
        "heavy_mean_submit": means["heavy"],
        "light_mean_submit": means["light"],
        # > 1 means the heavy tenant's backlog drained faster.
        "heavy_advantage": means["light"] / means["heavy"],
    }


def run_service_sharded(seed: int = 42, shards: int = 2,
                        tenants: int = 6, sessions_per_tenant: int = 4):
    """A shared-nothing sharded run (sequential here — sweep cells may
    already be process-pool workers, and pools do not nest); records
    the merged totals plus the aggregate digest the determinism CI
    compares across ``--jobs`` values."""
    yield None      # one world per shard, no one Session: launch refuses
    spec = LoadSpec(tenants=tenants,
                    sessions_per_tenant=sessions_per_tenant,
                    raptor_workers=8, seed=seed)
    sharded = run_sharded(spec, shards=shards, jobs=1)
    return {"kind": "sharded", "shards": shards,
            "digest": sharded.digest(), **sharded.aggregate()["totals"]}


# ------------------------------------------------------------ sweep grid
RUNNERS = {"load": run_service_load, "fairshare": run_service_fairshare,
           "admission": run_service_admission,
           "sharded": run_service_sharded}


def cells(root_seed: int = 42, quick: bool = False) -> List[SweepCell]:
    """Load (twice in the full grid), fairness, admission, sharding."""
    load = [make_cell("service", "load", root_seed, tenants=4,
                      sessions_per_tenant=8)]
    if not quick:
        load.append(make_cell("service", "load", root_seed, tenants=8,
                              sessions_per_tenant=32))
    return load + [
        make_cell("service", "fairshare", root_seed, heavy_weight=4),
        make_cell("service", "admission", root_seed, max_pending=8),
        make_cell("service", "sharded", root_seed, shards=2, tenants=6),
    ]
