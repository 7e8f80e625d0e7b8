"""Tests for Pilot-Data and the Compute-Data-Service.

PYTEST_DONT_REWRITE — assertion rewriting of this module trips a
CPython 3.11 ``ast`` recursion-guard bug; plain asserts work fine.
"""

import pytest

from repro.api import (
    ComputeDataService,
    ComputePilotDescription,
    ComputeUnitDescription,
    DataUnitDescription,
    PilotDataDescription,
    PilotState,
    UnitState,
)
from repro.sim import SimulationError
from tests.core.test_units import fast_agent

MB = 1024 ** 2


def start_pilot(stack, resource, nodes=1):
    env, registry, session, pmgr, umgr = stack
    pilot = pmgr.submit_pilot(ComputePilotDescription(
        resource=resource, nodes=nodes, runtime=600,
        agent_config=fast_agent()))
    umgr.add_pilots(pilot)
    env.run(pilot.wait(PilotState.ACTIVE))
    return pilot


def test_pilot_data_reserves_capacity(stack):
    env, registry, session, pmgr, umgr = stack
    cds = ComputeDataService(session, umgr)
    pd = cds.create_pilot_data(PilotDataDescription(
        resource="slurm://stampede", size_bytes=10 * MB))
    assert pd.free == 10 * MB
    assert pd.site.hostname == "stampede"


def test_pilot_data_validation(stack):
    env, registry, session, pmgr, umgr = stack
    cds = ComputeDataService(session, umgr)
    with pytest.raises(ValueError):
        cds.create_pilot_data(PilotDataDescription(
            resource="slurm://stampede", size_bytes=0))


def test_submit_data_unit_creates_files(stack):
    env, registry, session, pmgr, umgr = stack
    cds = ComputeDataService(session, umgr)
    pd = cds.create_pilot_data(PilotDataDescription(
        resource="slurm://stampede", size_bytes=100 * MB))
    holder = {}

    def driver():
        du = yield from cds.submit_data_unit(DataUnitDescription(
            name="trajectory",
            files=(("frames.dat", 30 * MB), ("energies.dat", 2 * MB))),
            pd)
        holder["du"] = du

    env.run(env.process(driver()))
    du = holder["du"]
    assert du.replicas == [pd]
    assert pd.used == 32 * MB
    site = registry.lookup("stampede")
    assert site.scratch.exists(pd.path_for(du.uid, "frames.dat"))


def test_data_unit_overflow_rejected(stack):
    env, registry, session, pmgr, umgr = stack
    cds = ComputeDataService(session, umgr)
    pd = cds.create_pilot_data(PilotDataDescription(
        resource="slurm://stampede", size_bytes=10 * MB))

    def driver():
        with pytest.raises(SimulationError, match="full"):
            yield from cds.submit_data_unit(DataUnitDescription(
                name="big", files=(("x", 20 * MB),)), pd)

    env.run(env.process(driver()))


def test_replicate_cross_site_pays_wan(stack):
    env, registry, session, pmgr, umgr = stack
    cds = ComputeDataService(session, umgr, inter_site_bw=10 * MB)
    pd_st = cds.create_pilot_data(PilotDataDescription(
        resource="slurm://stampede", size_bytes=100 * MB))
    pd_wr = cds.create_pilot_data(PilotDataDescription(
        resource="slurm://wrangler", size_bytes=100 * MB))
    times = {}

    def driver():
        du = yield from cds.submit_data_unit(DataUnitDescription(
            name="d", files=(("f", 50 * MB),)), pd_st)
        t0 = env.now
        yield env.process(cds.replicate(du, pd_wr))
        times["wan"] = env.now - t0
        assert du.located_on("wrangler") is pd_wr
        assert len(du.replicas) == 2

    env.run(env.process(driver()))
    assert times["wan"] >= 5.0  # 50MB over a 10MB/s WAN


def test_replicate_idempotent(stack):
    env, registry, session, pmgr, umgr = stack
    cds = ComputeDataService(session, umgr)
    pd = cds.create_pilot_data(PilotDataDescription(
        resource="slurm://stampede", size_bytes=100 * MB))

    def driver():
        du = yield from cds.submit_data_unit(DataUnitDescription(
            name="d", files=(("f", 10 * MB),)), pd)
        yield env.process(cds.replicate(du, pd))
        assert len(du.replicas) == 1  # no duplicate replica
        assert pd.used == 10 * MB

    env.run(env.process(driver()))


def test_compute_unit_scheduled_on_data_local_pilot(stack):
    env, registry, session, pmgr, umgr = stack
    pilot_st = start_pilot(stack, "slurm://stampede")
    pilot_wr = start_pilot(stack, "slurm://wrangler")
    cds = ComputeDataService(session, umgr)
    pd_wr = cds.create_pilot_data(PilotDataDescription(
        resource="slurm://wrangler", size_bytes=100 * MB))
    holder = {}

    def driver():
        du = yield from cds.submit_data_unit(DataUnitDescription(
            name="input", files=(("points.csv", 40 * MB),)), pd_wr)
        unit = yield from cds.submit_compute_unit(
            ComputeUnitDescription(cores=1, cpu_seconds=5.0,
                                   function=lambda: "done"),
            input_data=[du])
        holder["unit"] = unit
        yield umgr.wait_units([unit])

    env.run(env.process(driver()))
    unit = holder["unit"]
    # data lives on wrangler -> unit must run there
    assert unit.pilot_uid == pilot_wr.uid
    assert unit.state is UnitState.DONE
    assert unit.result == "done"


def test_missing_data_replicated_before_execution(stack):
    env, registry, session, pmgr, umgr = stack
    pilot_st = start_pilot(stack, "slurm://stampede")
    cds = ComputeDataService(session, umgr, inter_site_bw=10 * MB)
    pd_st = cds.create_pilot_data(PilotDataDescription(
        resource="slurm://stampede", size_bytes=100 * MB))
    pd_wr = cds.create_pilot_data(PilotDataDescription(
        resource="slurm://wrangler", size_bytes=100 * MB))
    holder = {}

    def driver():
        # data starts on wrangler, but the only pilot is on stampede
        du = yield from cds.submit_data_unit(DataUnitDescription(
            name="remote", files=(("f", 20 * MB),)), pd_wr)
        unit = yield from cds.submit_compute_unit(
            ComputeUnitDescription(cores=1, cpu_seconds=1.0),
            input_data=[du])
        holder["du"] = du
        holder["unit"] = unit
        yield umgr.wait_units([unit])

    env.run(env.process(driver()))
    assert holder["unit"].state is UnitState.DONE
    # the CDS replicated the data to stampede first
    assert holder["du"].located_on("stampede") is not None
    assert pd_st.used == 20 * MB


def test_compute_unit_without_pilot_rejected(stack):
    env, registry, session, pmgr, umgr = stack
    cds = ComputeDataService(session, umgr)

    def driver():
        with pytest.raises(SimulationError, match="no usable pilots"):
            yield from cds.submit_compute_unit(
                ComputeUnitDescription(cores=1))

    env.run(env.process(driver()))


def test_affinity_prefers_largest_byte_share(stack):
    env, registry, session, pmgr, umgr = stack
    pilot_st = start_pilot(stack, "slurm://stampede")
    pilot_wr = start_pilot(stack, "slurm://wrangler")
    cds = ComputeDataService(session, umgr)
    pd_st = cds.create_pilot_data(PilotDataDescription(
        resource="slurm://stampede", size_bytes=100 * MB))
    pd_wr = cds.create_pilot_data(PilotDataDescription(
        resource="slurm://wrangler", size_bytes=100 * MB))
    holder = {}

    def driver():
        small = yield from cds.submit_data_unit(DataUnitDescription(
            name="small", files=(("s", 5 * MB),)), pd_st)
        big = yield from cds.submit_data_unit(DataUnitDescription(
            name="big", files=(("b", 50 * MB),)), pd_wr)
        unit = yield from cds.submit_compute_unit(
            ComputeUnitDescription(cores=1, cpu_seconds=1.0),
            input_data=[small, big])
        holder["unit"] = unit
        yield umgr.wait_units([unit])

    env.run(env.process(driver()))
    # 50 MB on wrangler vs 5 MB on stampede -> run on wrangler
    assert holder["unit"].pilot_uid == pilot_wr.uid
    assert holder["unit"].state is UnitState.DONE


def test_delete_data_unit_frees_space(stack):
    env, registry, session, pmgr, umgr = stack
    cds = ComputeDataService(session, umgr)
    pd = cds.create_pilot_data(PilotDataDescription(
        resource="slurm://stampede", size_bytes=100 * MB))

    def driver():
        du = yield from cds.submit_data_unit(DataUnitDescription(
            name="d", files=(("f", 10 * MB),)), pd)
        cds.delete_data_unit(du)
        assert pd.used == 0
        assert du.state == "New"

    env.run(env.process(driver()))
