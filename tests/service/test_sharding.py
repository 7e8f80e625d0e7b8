"""Workload determinism + shared-nothing sharding."""

import json
from collections import Counter

import pytest

from repro.core.description import DescriptionError
from repro.service import LoadSpec, run_load, run_sharded, shard_of
from repro.service.service import PilotService

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


#: The headline scenario (the ``service-sessions`` benchmark workload):
#: task_seconds far exceeds the arrival window, so all 10,240 sessions
#: are open at once.
HEADLINE = LoadSpec(tenants=64, sessions_per_tenant=160, tasks_per_session=2,
                    arrival_window=2.0, task_seconds=5.0, raptor_workers=31)


@pytest.fixture(scope="module")
def headline():
    """The headline run's row and its dispatched tickets per instant."""
    per_instant = Counter()
    dispatch = PilotService._dispatch

    def counted(service, ticket):
        per_instant[service.env.now] += 1
        return dispatch(service, ticket)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PilotService, "_dispatch", counted)
        row = run_load(HEADLINE)
    return row, per_instant


def test_ten_thousand_concurrent_sessions_hold_their_latency_slo(headline):
    """Simulated time only: latencies come from the service's own
    telemetry histograms and are seed-deterministic, so the SLO is
    pinned exactly."""
    row, _ = headline
    assert row["peak_concurrent_sessions"] == 10240
    assert row["tickets_failed"] == 0
    assert row["tickets_completed"] == row["tickets_submitted"]
    assert row["sessions_closed"] == row["sessions_opened"] == 10240
    # Submit latency is bounded by the per-tick dispatch cap: 10,240
    # tickets leave at most ``max_batch_per_tick`` = 256 per tick.
    assert [row[f"submit_p{p}"] for p in (50, 95, 99)] == [0.05, 0.1, 0.25]
    assert [row[f"completion_p{p}"] for p in (50, 95, 99)] == [
        2500.0, 5000.0, 5000.0]


def test_no_drain_instant_dispatches_more_than_the_batch_cap(headline):
    """Each drain instant is ticked once.  A grid instant that rounding
    put just below its grid point used to drain a second time at the
    same instant (12 of 41 here, up to 304 tickets at one)."""
    row, per_instant = headline
    assert sum(per_instant.values()) == row["tickets_submitted"] == 10240
    assert max(per_instant.values()) <= HEADLINE.max_batch_per_tick
