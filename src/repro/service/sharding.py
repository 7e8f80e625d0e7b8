"""Shared-nothing sharding of service load across a process pool.

One service process scales to ~10k sessions; past that the tenant set
is split into independent shards, each a complete simulated world
(machine + pilot + overlay + service) serving only its tenants.
Tenant -> shard placement uses :func:`repro.hashing.stable_hash`, so it
is identical across processes and ``PYTHONHASHSEED`` settings, and the
per-tenant arrival streams in :mod:`repro.service.workload` make every
tenant's workload independent of its neighbours — a shard's rows do
not change when the other shards run elsewhere.

The fan-out mirrors :mod:`repro.experiments.sweeps`: ``jobs=1`` is the
sequential in-process reference, ``jobs=N`` maps the same shard list
over a ``ProcessPoolExecutor`` with *ordered* aggregation, and the
canonical-JSON digest of the merged result is byte-identical either
way (pinned by the determinism tests and the ``service`` sweep grid).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.hashing import stable_hash
from repro.persist.store import canonical_json, text_digest
from repro.service.workload import LoadSpec, run_load


def shard_of(tenant: str, shards: int) -> int:
    """Deterministic tenant -> shard placement."""
    if shards < 1:
        raise ValueError("shards must be >= 1")
    return stable_hash(tenant) % shards


@dataclass
class ShardedRun:
    """A sharded load run: per-shard rows + the merged deterministic
    aggregate."""

    spec: LoadSpec
    jobs: int
    rows: List[Dict[str, Any]] = field(default_factory=list)

    def aggregate(self) -> Dict[str, Any]:
        """Merged totals + per-shard rows, in shard order."""
        summed = ("tenants", "sessions_opened", "sessions_rejected",
                  "sessions_closed", "peak_concurrent_sessions",
                  "tickets_submitted", "tickets_throttled",
                  "tickets_rejected", "tickets_completed",
                  "tickets_failed")
        totals = {key: sum(r[key] for r in self.rows) for key in summed}
        totals["makespan"] = max((r["makespan"] for r in self.rows),
                                 default=0.0)
        return {"shards": self.spec.shards, "totals": totals,
                "rows": self.rows}

    def aggregate_json(self) -> str:
        """Canonical JSON of :meth:`aggregate` — byte-comparable."""
        return canonical_json(self.aggregate())

    def digest(self) -> str:
        """sha256 of the canonical aggregate."""
        return text_digest(self.aggregate_json())


def run_sharded(spec: LoadSpec, shards: int,
                jobs: Optional[int] = 1) -> ShardedRun:
    """Split ``spec`` into ``shards`` shared-nothing worlds and run them.

    ``jobs=1`` (the default, and what nested callers like sweep cells
    must use — pools don't nest) runs shards sequentially in-process;
    ``jobs=N`` fans out over a process pool with ordered aggregation.
    The aggregate is identical either way.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if jobs is None or jobs < 1:
        raise ValueError("jobs must be >= 1")
    spec.validate()
    shard_specs = [spec.replace(shard=i, shards=shards)
                   for i in range(shards)]
    if jobs == 1 or shards == 1:
        rows = [run_load(s) for s in shard_specs]
    else:
        with ProcessPoolExecutor(
                max_workers=min(jobs, shards)) as ex:
            # executor.map yields results in submission order no matter
            # which worker finishes first.
            rows = list(ex.map(run_load, shard_specs))
    return ShardedRun(spec=spec, jobs=jobs, rows=rows)
