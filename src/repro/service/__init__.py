"""repro.service: the multi-tenant pilot service layer.

One long-lived :class:`~repro.service.service.PilotService` multiplexes
thousands of tenant sessions over shared pilot capacity: asynchronous
batched submission, per-tenant admission control (bounded queues,
``Throttled``/``Rejected`` backpressure), weighted deficit round-robin
fair share, a YARN-RM-style ``query()`` surface, and shared-nothing
sharding across a process pool for scale beyond one instance.

Quickstart::

    service = PilotService(session)
    service.attach_overlay(session.raptor(pilot, workers=16))
    service.register_tenant("alice", TenantQuota(max_pending=512))
    sess = service.open_session("alice")
    ticket = sess.submit_raptor([TaskDescription(cpu_seconds=1.0)])
    yield ticket.wait()          # or env.run(service.quiesced())
    service.query("/tenants/alice/sessions")
"""

from repro.service.admission import (
    RequestState,
    TenantAccount,
    TenantQuota,
    Ticket,
)
from repro.service.fairshare import WeightedDeficitRoundRobin
from repro.service.service import (
    PilotService,
    ServiceConfig,
    ServiceSession,
)
from repro.service.sharding import ShardedRun, run_sharded, shard_of
from repro.service.workload import LoadSpec, run_load

__all__ = [
    "LoadSpec",
    "PilotService",
    "RequestState",
    "ServiceConfig",
    "ServiceSession",
    "ShardedRun",
    "TenantAccount",
    "TenantQuota",
    "Ticket",
    "WeightedDeficitRoundRobin",
    "run_load",
    "run_sharded",
    "shard_of",
]
