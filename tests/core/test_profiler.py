"""Tests for session profiling utilities."""

import pytest

from repro.api import (
    ComputePilotDescription,
    ComputeUnitDescription,
    PilotState,
)
from repro.core.profiler import (
    concurrency_series,
    peak_concurrency,
    phase_means,
    unit_phases,
)
from tests.core.test_units import fast_agent


@pytest.fixture()
def run_units(stack):
    env, registry, session, pmgr, umgr = stack
    pilot = pmgr.submit_pilot(ComputePilotDescription(
        resource="slurm://stampede", nodes=1, runtime=600,
        agent_config=fast_agent()))
    umgr.add_pilots(pilot)
    env.run(pilot.wait(PilotState.ACTIVE))
    units = umgr.submit_units([ComputeUnitDescription(
        cores=4, cpu_seconds=80.0) for _ in range(8)])  # 20s each, 4 fit
    env.run(umgr.wait_units(units))
    return env, pilot, units


def test_unit_phases_cover_pipeline(run_units):
    env, pilot, units = run_units
    phases = unit_phases(units[0])
    assert phases["execute"] > 15.0
    assert all(v is not None and v >= 0 for v in phases.values())


def test_phase_means(run_units):
    env, pilot, units = run_units
    means = phase_means(units)
    assert set(means) == {"queue", "stage_in", "schedule", "execute",
                          "stage_out"}
    assert means["execute"] == pytest.approx(20.0, rel=0.1)


def test_phase_means_partial_histories(stack):
    """Units stuck early in the pipeline: every phase label is still
    present, with None for phases no unit completed."""
    env, registry, session, pmgr, umgr = stack
    pilot = pmgr.submit_pilot(ComputePilotDescription(
        resource="slurm://stampede", nodes=1, runtime=600,
        agent_config=fast_agent(bootstrap_seconds=1e6)))
    umgr.add_pilots(pilot)
    units = umgr.submit_units([ComputeUnitDescription(cores=1)
                               for _ in range(3)])
    env.run(until=10.0)  # agent never bootstraps; units wait in UMGR

    means = phase_means(units)
    assert set(means) == {"queue", "stage_in", "schedule", "execute",
                          "stage_out"}
    assert all(v is None for v in means.values())


def test_phase_means_empty_iterable():
    means = phase_means([])
    assert set(means) == {"queue", "stage_in", "schedule", "execute",
                          "stage_out"}
    assert all(v is None for v in means.values())


def test_concurrency_capped_by_cores(run_units):
    env, pilot, units = run_units
    # 8 units x 4 cores on a 16-core node: at most 4 concurrent
    assert peak_concurrency(units) == 4
    series = concurrency_series(units)
    assert all(count >= 0 for _, count in series)
    assert series[-1][1] == 0  # everything drained


def test_incomplete_unit_phases_none(stack):
    env, registry, session, pmgr, umgr = stack
    pilot = pmgr.submit_pilot(ComputePilotDescription(
        resource="slurm://stampede", nodes=1, runtime=600,
        agent_config=fast_agent(bootstrap_seconds=1e6)))
    umgr.add_pilots(pilot)
    units = umgr.submit_units([ComputeUnitDescription(cores=1)])
    env.run(until=10.0)
    phases = unit_phases(units[0])
    assert phases["execute"] is None
