"""Tests for the MD trajectory analysis workload."""

import numpy as np
import pytest

from repro.analytics import (
    radius_of_gyration,
    rmsd_to_reference,
    run_trajectory_analysis,
    synthesize_trajectory,
)
from repro.cluster import stampede
from repro.api import (
    AgentConfig,
    ComputePilotDescription,
    PilotManager,
    PilotState,
    Session,
    UnitManager,
)
from repro.saga import Registry, Site
from repro.sim import Environment
from tests.conftest import FAST_RMS


def test_synthesize_shape_and_determinism():
    t1 = synthesize_trajectory(20, 10, seed=3)
    t2 = synthesize_trajectory(20, 10, seed=3)
    assert t1.shape == (20, 10, 3)
    assert np.array_equal(t1, t2)
    with pytest.raises(ValueError):
        synthesize_trajectory(0, 10)


def test_rmsd_zero_against_self():
    traj = synthesize_trajectory(5, 8)
    rmsd = rmsd_to_reference(traj, traj[2])
    assert rmsd[2] == pytest.approx(0.0, abs=1e-12)
    assert np.all(rmsd >= 0)


def test_rmsd_known_value():
    ref = np.zeros((4, 3))
    frames = np.ones((1, 4, 3))  # every atom displaced by sqrt(3)
    rmsd = rmsd_to_reference(frames, ref)
    assert rmsd[0] == pytest.approx(np.sqrt(3.0))


def test_radius_of_gyration_known_value():
    # two atoms at +/-1 on x: com at 0, Rg = 1
    frames = np.array([[[1.0, 0, 0], [-1.0, 0, 0]]])
    assert radius_of_gyration(frames)[0] == pytest.approx(1.0)


def test_pilot_chunked_analysis_matches_serial():
    env = Environment()
    registry = Registry()
    registry.register(Site(env, stampede(num_nodes=2),
                           rms_config=FAST_RMS))
    session = Session(env, registry)
    pmgr, umgr = PilotManager(session), UnitManager(session)
    pilot = pmgr.submit_pilot(ComputePilotDescription(
        resource="slurm://stampede", nodes=1, runtime=600,
        agent_config=AgentConfig(bootstrap_seconds=1.0,
                                 db_connect_seconds=0.1,
                                 db_poll_interval=0.2,
                                 spawn_overhead_seconds=0.1)))
    umgr.add_pilots(pilot)
    env.run(pilot.wait(PilotState.ACTIVE))

    traj = synthesize_trajectory(60, 12, seed=5)
    holder = {}

    def driver():
        rmsd, rg = yield from run_trajectory_analysis(
            umgr, traj, ntasks=4)
        holder["rmsd"], holder["rg"] = rmsd, rg

    env.run(env.process(driver()))
    assert np.allclose(holder["rmsd"], rmsd_to_reference(traj, traj[0]))
    assert np.allclose(holder["rg"], radius_of_gyration(traj))
    assert len(holder["rmsd"]) == 60
