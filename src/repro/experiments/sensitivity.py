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

from typing import List

from repro.experiments.figure6 import run_figure6_cell
from repro.experiments.sweeps import SweepCell, make_cell

#: Job-visible Lustre shares swept, MB/s.
BANDWIDTHS_MB = (10, 30, 100, 300)


def run_lustre_bw_cell(bw_mb: float, flavor: str, seed: int = 42,
                       points: int = 1_000_000, clusters: int = 50,
                       ntasks: int = 32):
    """K-Means time-to-completion of one runtime at one Lustre share:
    the Figure 6 Stampede cell, with one stream able to take the whole
    share."""
    lustre_bw = bw_mb * 1e6
    row = yield from run_figure6_cell(
        "stampede", flavor, points, clusters, ntasks, seed=seed,
        lustre_bw=lustre_bw)
    if not row.centroids_ok:
        raise RuntimeError(
            f"sensitivity cell lustre_bw={lustre_bw:g} flavor={flavor} "
            f"points={points} clusters={clusters} ntasks={ntasks}: "
            f"centroids diverge from the NumPy reference")
    return {"lustre_bw": lustre_bw, "flavor": flavor,
            "runtime": row.runtime}


# ------------------------------------------------------------ sweep grid
def cells(root_seed: int = 42, quick: bool = False) -> List[SweepCell]:
    """One cell per (bandwidth, flavor) (``quick`` changes nothing)."""
    return [
        make_cell("sensitivity", "lustre-bw", root_seed, bw_mb=bw_mb,
                  flavor=flavor)
        for bw_mb in BANDWIDTHS_MB
        for flavor in ("RP", "RP-YARN")
    ]


RUNNERS = {"lustre-bw": run_lustre_bw_cell}
