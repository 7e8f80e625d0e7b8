"""Sensitivity analysis: where the RP vs RP-YARN crossover falls.

The paper's Figure 6 outcome hinges on the balance between the shared
filesystem's job-visible bandwidth (hurting plain RP at scale) and
YARN's fixed per-unit overheads.  This sweep varies the Lustre share
on the Stampede template and reruns the paper's most I/O-sensitive
cell (1M points / 50 clusters / 32 tasks), locating the bandwidth at
which the YARN advantage crosses zero — the "which runtime should I
use on this machine?" answer the paper's discussion asks for.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from repro.analytics.kmeans import run_kmeans_pilot
from repro.cluster.machine import stampede
from repro.cluster.storage import StorageSpec
from repro.api import PilotManager, Session, UnitManager
from repro.api import ComputePilotDescription, PilotState
from repro.experiments.calibration import (
    CALIBRATED_KMEANS_COST,
    CALIBRATED_RMS,
    ITERATIONS,
    agent_config,
)
from repro.experiments.figure6 import _expected_for, _points_for
from repro.saga import Registry, Site
from repro.sim import Environment


@dataclass
class SensitivityRow:
    lustre_bw: float          # bytes/s (job-visible share)
    rp_runtime: float
    yarn_runtime: float

    @property
    def yarn_advantage(self) -> float:
        return (self.rp_runtime - self.yarn_runtime) / self.rp_runtime


def _run_cell(lustre_bw: float, flavor: str, points: int,
              clusters: int, ntasks: int, nodes: int) -> float:
    spec = stampede(num_nodes=nodes)
    spec = replace(spec, shared_fs=StorageSpec(
        name="lustre-sweep", aggregate_bw=lustre_bw,
        per_stream_bw=lustre_bw, latency=0.040,
        capacity=spec.shared_fs.capacity))
    env = Environment()
    registry = Registry()
    site = registry.register(Site(env, spec, rms_config=CALIBRATED_RMS))
    session = Session(env, registry)
    pmgr, umgr = PilotManager(session), UnitManager(session)
    lrm = "yarn" if flavor == "RP-YARN" else "fork"
    pilot = pmgr.submit_pilot(ComputePilotDescription(
        resource="slurm://stampede", nodes=nodes, runtime=24 * 60.0,
        agent_config=agent_config(lrm)))
    umgr.add_pilots(pilot)
    env.run(pilot.wait(PilotState.ACTIVE))

    t0 = env.now
    centroids, _ = env.run(env.process(run_kmeans_pilot(
        umgr, _points_for(points, clusters), clusters, ntasks=ntasks,
        iterations=ITERATIONS, cost=CALIBRATED_KMEANS_COST)))
    span = env.now - t0
    if not np.allclose(centroids, _expected_for(points, clusters)):
        raise RuntimeError(
            f"sensitivity cell lustre_bw={lustre_bw:g} flavor={flavor} "
            f"points={points} clusters={clusters} ntasks={ntasks}: "
            f"centroids diverge from the NumPy reference")
    setup = pilot.agent_info["lrm_setup_seconds"]
    return span + (setup if flavor == "RP-YARN" else 0.0)


def sweep_lustre_bandwidth(
        bandwidths_mb: Optional[List[float]] = None,
        points: int = 1_000_000, clusters: int = 50,
        ntasks: int = 32, nodes: int = 3) -> List[SensitivityRow]:
    """Run the sweep; returns one row per bandwidth point."""
    rows = []
    for bw_mb in bandwidths_mb or [10, 30, 100, 300]:
        bw = bw_mb * 1e6
        rows.append(SensitivityRow(
            lustre_bw=bw,
            rp_runtime=_run_cell(bw, "RP", points, clusters, ntasks, nodes),
            yarn_runtime=_run_cell(bw, "RP-YARN", points, clusters,
                                   ntasks, nodes)))
    return rows


def crossover_bandwidth(rows: List[SensitivityRow]) -> Optional[float]:
    """First bandwidth (by increasing bw) where YARN stops winning."""
    for row in sorted(rows, key=lambda r: r.lustre_bw):
        if row.yarn_advantage <= 0:
            return row.lustre_bw
    return None
