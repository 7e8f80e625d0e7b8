"""Workload determinism + shared-nothing sharding."""

import json

import pytest

from repro.core.description import DescriptionError
from repro.service import LoadSpec, run_load, run_sharded, shard_of

SPEC = LoadSpec(tenants=6, sessions_per_tenant=4, raptor_workers=4)


def test_spec_validation():
    for bad in (dict(tenants=0), dict(sessions_per_tenant=0),
                dict(tasks_per_session=0), dict(arrival_window=0),
                dict(shards=0), dict(shard=2, shards=2),
                dict(max_pending=0)):
        with pytest.raises(DescriptionError):
            LoadSpec(**bad).validate()


def test_shard_of_is_stable_and_total():
    with pytest.raises(ValueError, match="shards"):
        shard_of("t", 0)
    assert shard_of("tenant-000", 4) == shard_of("tenant-000", 4)
    names = [f"tenant-{i:03d}" for i in range(32)]
    assert {shard_of(n, 1) for n in names} == {0}
    assert all(0 <= shard_of(n, 4) < 4 for n in names)


def test_tenant_names_partition_exactly():
    """Every tenant lands on exactly one shard; the union is complete."""
    spec = LoadSpec(tenants=16)
    seen = []
    for i in range(3):
        seen.extend(spec.replace(shard=i, shards=3).tenant_names())
    assert sorted(seen) == spec.tenant_names()


def test_run_load_is_deterministic():
    assert run_load(SPEC) == run_load(SPEC)


def test_run_load_row_is_json_and_accounts_for_everything(tmp_path):
    row = run_load(SPEC)
    json.dumps(row)
    assert row["sessions_opened"] == 24
    assert row["sessions_closed"] == 24
    assert row["peak_concurrent_sessions"] == 24
    assert row["tickets_completed"] == row["tickets_submitted"]
    assert row["tickets_failed"] == 0
    assert row["submit_p50"] > 0
    assert row["completion_p99"] >= row["completion_p50"] > 0


def test_sharded_jobs1_matches_jobs2_byte_for_byte():
    """ISSUE acceptance: the sharded aggregate digest is identical for
    the sequential reference path and the process-pool fan-out."""
    sequential = run_sharded(SPEC, shards=2, jobs=1)
    parallel = run_sharded(SPEC, shards=2, jobs=2)
    assert sequential.aggregate_json() == parallel.aggregate_json()
    assert sequential.digest() == parallel.digest()


def test_sharded_totals_conserve_the_unsharded_workload():
    """Shared-nothing split: same tenants, same per-tenant arrivals, so
    the summed counts equal the unsharded run's."""
    whole = run_load(SPEC)
    sharded = run_sharded(SPEC, shards=3, jobs=1)
    totals = sharded.aggregate()["totals"]
    for key in ("tenants", "sessions_opened", "sessions_closed",
                "tickets_submitted", "tickets_completed"):
        assert totals[key] == whole[key], key
    assert len(sharded.rows) == 3
    assert [r["shard"] for r in sharded.rows] == [0, 1, 2]


def test_run_sharded_rejects_bad_args():
    with pytest.raises(ValueError, match="shards"):
        run_sharded(SPEC, shards=0)
    with pytest.raises(ValueError, match="jobs"):
        run_sharded(SPEC, shards=2, jobs=0)


def test_ten_thousand_concurrent_sessions_hold_their_latency_slo():
    """The headline scenario, on simulated time only: task_seconds far
    exceeds the arrival window, so all 10,240 sessions are open at once.
    Latencies come from the service's own telemetry histograms and are
    seed-deterministic, so the SLO is pinned exactly."""
    row = run_load(LoadSpec(tenants=64, sessions_per_tenant=160,
                            tasks_per_session=2, arrival_window=2.0,
                            task_seconds=5.0, raptor_workers=31))
    assert row["peak_concurrent_sessions"] == 10240
    assert row["tickets_failed"] == 0
    assert row["tickets_completed"] == row["tickets_submitted"]
    assert row["sessions_closed"] == row["sessions_opened"] == 10240
    assert [row[f"submit_p{p}"] for p in (50, 95, 99)] == [0.05, 0.05, 0.1]
    assert [row[f"completion_p{p}"] for p in (50, 95, 99)] == [
        2500.0, 5000.0, 5000.0]
