"""MD trajectory analysis: the paper's future-work workload (§V).

The paper's motivating applications are bio-molecular dynamics
pipelines whose analysis stages (MDAnalysis/CPPTraj-style) need to
scale with the simulation output.  We implement the two canonical
per-frame observables — RMSD against a reference structure and radius
of gyration — plus a pilot-based decomposition that analyzes a
trajectory in chunked Compute-Units, exactly the "simulation stage
feeds analysis stage under one resource layer" pattern the paper
argues for.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.description import ComputeUnitDescription


def synthesize_trajectory(num_frames: int, num_atoms: int,
                          seed: int = 7,
                          step_sigma: float = 0.01) -> np.ndarray:
    """A synthetic (frames, atoms, 3) trajectory: harmonic random walk.

    Stands in for real MD output (which we cannot produce without an
    MD engine): atoms jitter around an initial fold with a weak pull
    back, giving RMSD/Rg series with realistic shape.
    """
    if num_frames < 1 or num_atoms < 1:
        raise ValueError("frames and atoms must be >= 1")
    rng = np.random.default_rng(seed)
    initial = rng.uniform(-1.0, 1.0, size=(num_atoms, 3))
    frames = np.empty((num_frames, num_atoms, 3))
    current = initial.copy()
    for f in range(num_frames):
        current = current + rng.normal(0, step_sigma, size=current.shape) \
            - 0.02 * (current - initial)
        frames[f] = current
    return frames


def rmsd_to_reference(frames: np.ndarray,
                      reference: np.ndarray) -> np.ndarray:
    """Per-frame RMSD against a reference structure (no alignment).

    Vectorized over frames: sqrt(mean ||x_i - ref_i||^2).
    """
    delta = frames - reference[None, :, :]
    return np.sqrt((delta ** 2).sum(axis=2).mean(axis=1))


def radius_of_gyration(frames: np.ndarray) -> np.ndarray:
    """Per-frame radius of gyration (uniform masses)."""
    com = frames.mean(axis=1, keepdims=True)
    return np.sqrt(((frames - com) ** 2).sum(axis=2).mean(axis=1))


def run_trajectory_analysis(umgr, trajectory: np.ndarray,
                            reference: Optional[np.ndarray] = None,
                            ntasks: int = 4,
                            bytes_per_frame: Optional[float] = None,
                            cpu_per_frame: float = 0.05):
    """Analyze a trajectory in chunked Compute-Units.  Generator.

    Each unit computes RMSD + Rg for its frame slice (really, with
    NumPy); I/O is modeled as reading the trajectory chunk from the
    pilot's storage backend.  Returns ``(rmsd, rg)`` full series.
    """
    if reference is None:
        reference = trajectory[0]
    if bytes_per_frame is None:
        bytes_per_frame = trajectory.shape[1] * 3 * 8.0
    chunks = np.array_split(trajectory, ntasks)

    def analyze(chunk, ref):
        return (rmsd_to_reference(chunk, ref), radius_of_gyration(chunk))

    descs = []
    for chunk in chunks:
        descs.append(ComputeUnitDescription(
            executable="python", arguments=("traj_analyze.py",),
            name="traj-analyze", cores=1,
            cpu_seconds=cpu_per_frame * len(chunk),
            input_bytes=bytes_per_frame * len(chunk),
            output_bytes=16.0 * len(chunk),
            function=analyze, args=(chunk, reference)))
    units = umgr.submit_units(descs)
    yield umgr.wait_units(units)
    failed = [u for u in units if u.state.value != "Done"]
    if failed:
        raise RuntimeError(f"{len(failed)} analysis units failed")
    rmsd = np.concatenate([u.result[0] for u in units])
    rg = np.concatenate([u.result[1] for u in units])
    return rmsd, rg
