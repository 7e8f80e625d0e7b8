"""Tests for the BigJob-flavoured Pilot-API facade."""

import pytest

from repro.core.description import DescriptionError
from repro.pilot_api import (
    ComputeDataService,
    PilotComputeService,
    ServiceState,
)
from repro.pilot_api.service import (
    _pilot_description_from_dict,
    _unit_description_from_dict,
)


def make_services(stack):
    env, registry, session, _, _ = stack
    pcs = PilotComputeService(session)
    cds = ComputeDataService(session)
    return env, pcs, cds


PILOT_DICT = {
    "service_url": "slurm://stampede",
    "number_of_nodes": 2,
    "walltime": 60,
}


def test_pilot_lifecycle_via_dicts(stack):
    env, pcs, cds = make_services(stack)
    pilot = pcs.create_pilot(dict(PILOT_DICT))
    assert pilot.get_state() == ServiceState.NEW
    env.run(pilot.wait_active())
    assert pilot.get_state() == ServiceState.RUNNING
    details = pilot.get_details()
    assert details["agent"]["cores"] == 32
    pilot.cancel()
    env.run(pilot.native.wait())
    assert pilot.get_state() == ServiceState.CANCELED


def test_compute_units_via_dicts(stack):
    env, pcs, cds = make_services(stack)
    pilot = pcs.create_pilot(dict(PILOT_DICT))
    cds.add_pilot_compute_service(pcs)
    env.run(pilot.wait_active())
    cu = cds.submit_compute_unit({
        "executable": "/bin/date",
        "number_of_processes": 1,
        "cpu_seconds": 5.0,
        "function": lambda: 2026,
    })
    env.run(cds.wait())
    assert cu.get_state() == ServiceState.DONE
    assert cu.get_result() == 2026


def test_mpi_spmd_variation_maps_to_mpiexec():
    desc = _unit_description_from_dict({
        "executable": "simulate", "number_of_processes": 8,
        "spmd_variation": "mpi"})
    assert desc.launch_method == "mpiexec"
    assert desc.cores == 8


def test_processes_to_nodes_mapping():
    desc = _pilot_description_from_dict({
        "service_url": "slurm://stampede", "number_of_processes": 40})
    assert desc.nodes == 3  # ceil(40 / 16)


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="unknown pilot"):
        _pilot_description_from_dict({
            "service_url": "slurm://x", "walltimes": 1})
    with pytest.raises(ValueError, match="unknown unit"):
        _unit_description_from_dict({"executables": "/bin/date"})


def test_service_url_required():
    with pytest.raises(ValueError, match="service_url"):
        _pilot_description_from_dict({"number_of_nodes": 1})


def test_failed_unit_state_mapping(stack):
    env, pcs, cds = make_services(stack)
    pilot = pcs.create_pilot(dict(PILOT_DICT))
    cds.add_pilot_compute_service(pcs)
    env.run(pilot.wait_active())

    def boom():
        raise RuntimeError("x")

    cu = cds.submit_compute_unit({"executable": "bad", "function": boom})
    env.run(cds.wait())
    assert cu.get_state() == ServiceState.FAILED


def test_bad_typed_values_raise_description_error():
    with pytest.raises(DescriptionError, match="walltime"):
        _pilot_description_from_dict({
            "service_url": "slurm://x", "walltime": "soon"})
    with pytest.raises(DescriptionError, match="number_of_nodes"):
        _pilot_description_from_dict({
            "service_url": "slurm://x", "number_of_nodes": "two"})
    with pytest.raises(DescriptionError, match="service_url"):
        _pilot_description_from_dict({"service_url": 17})
    with pytest.raises(DescriptionError, match="number_of_processes"):
        _unit_description_from_dict({
            "executable": "/bin/date", "number_of_processes": "many"})
    with pytest.raises(DescriptionError, match="memory_mb"):
        _unit_description_from_dict({
            "executable": "/bin/date", "memory_mb": "big"})


def test_description_error_is_a_value_error():
    # callers catching the old ValueError contract keep working
    with pytest.raises(ValueError, match="unknown unit"):
        _unit_description_from_dict({"executables": "/bin/date"})


def test_pcs_cancel_all(stack):
    env, pcs, cds = make_services(stack)
    a = pcs.create_pilot(dict(PILOT_DICT))
    b = pcs.create_pilot(dict(PILOT_DICT, service_url="slurm://wrangler"))
    env.run(env.all_of([a.wait_active(), b.wait_active()]))
    pcs.cancel()
    env.run(env.all_of([a.native.wait(), b.native.wait()]))
    assert a.get_state() == ServiceState.CANCELED
    assert b.get_state() == ServiceState.CANCELED
