"""Calibration constants and the paper statements they encode.

Every number here is traceable to a sentence or figure in the paper
(quoted in the comments).  The benchmarks print measured values next
to these targets; EXPERIMENTS.md records the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analytics.kmeans import KMeansCost
from repro.core.description import AgentConfig
from repro.rms.base import RmsConfig
from repro.yarn.config import YarnConfig

# ---------------------------------------------------------------- batch RMS
#: Production-flavoured batch system timings (idle queue): submission
#: RTT and node prolog; an idle queue starts the job the instant it
#: arrives.  Together with the agent bootstrap these produce plain-RP
#: pilot startup of ~50-60 s, matching the RADICAL-Pilot bars of
#: Figure 5.
CALIBRATED_RMS = RmsConfig(submit_latency=1.0, prolog_seconds=8.0,
                           epilog_seconds=2.0)

# -------------------------------------------------------------------- YARN
#: "For each CU, resources have to be requested in two stages: first
#: the application master container is allocated followed by the
#: containers for the actual compute tasks.  For short-running jobs
#: this represents a bottleneck." (§IV-A) — the inset of Figure 5 shows
#: RP-YARN CU startup of ~40-45 s vs seconds for plain RP.
CALIBRATED_YARN = YarnConfig(
    nm_vcore_ratio=2.0,             # vcores oversubscribed, as is common
    max_assignments_per_heartbeat=2,
    client_submit_seconds=6.0,      # `yarn jar` client JVM + submission
    container_launch_seconds=12.0,  # localization + JVM spin-up
    am_register_seconds=2.0,
    rm_submit_latency=0.5,
    nm_heartbeat=1.0,
    am_heartbeat=1.0,
    rm_startup_seconds=10.0,
    nm_startup_seconds=6.0,
)

# ------------------------------------------------------------------- agent
#: "For a single node YARN environment, the overhead for Mode I
#: (Hadoop on HPC) is between 50-85 sec depending upon the resource
#: selected." (§IV-A).  The Mode I overhead here is download
#: (250 MB at the machine's external bandwidth: ~21 s on Stampede,
#: ~10 s on Wrangler) + configure (5 s) + HDFS start (10 s) + YARN
#: start (8 s) ≈ 44-55 s of LRM setup on top of the base bootstrap.
def agent_config(lrm: str = "fork", **overrides) -> AgentConfig:
    """The calibrated agent configuration for one pilot flavour."""
    defaults = dict(
        lrm=lrm,
        bootstrap_seconds=38.0,     # virtualenv + module loads (RP-typical)
        db_connect_seconds=2.0,
        db_poll_interval=1.0,
        spawn_overhead_seconds=3.0,  # wrapper script env setup
        hadoop_dist_bytes=250 * 1024 ** 2,
        spark_dist_bytes=230 * 1024 ** 2,
        configure_seconds=5.0,
        connect_seconds=3.0,
        scheduler_policy="spread",   # 8/16/32 tasks over 1/2/3 nodes
        yarn_config=CALIBRATED_YARN,
        # Interpreter + imports per task: read from Lustre by plain
        # pilots (contended at wave starts — the mechanism behind the
        # paper's sub-linear speedups), localized from node disks by
        # YARN/Spark tasks.
        task_environment_bytes=150 * 1024 ** 2,
    )
    defaults.update(overrides)
    return AgentConfig(**defaults)


CALIBRATED_AGENT = agent_config()

# ----------------------------------------------------------------- K-Means
#: Scenarios of §IV-B: "10,000 points and 5,000 clusters, 100,000
#: points / 500 clusters and 1,000,000 points / 50 clusters.  Each
#: point belongs to a three dimensional space.  The compute
#: requirement is ... constant for all three scenarios.  The
#: communication in the shuffling phase however increases with the
#: number of points. ... we run 2 iterations."
SCENARIOS: List[Tuple[int, int]] = [
    (10_000, 5_000),
    (100_000, 500),
    (1_000_000, 50),
]
ITERATIONS = 2
DIM = 3

#: "8 tasks on 1 node, 16 tasks on 2 nodes and 32 tasks on 3 nodes."
TASK_CONFIGS: Dict[int, int] = {8: 1, 16: 2, 32: 3}

#: Compute cost: chosen so the 8-task Stampede runtime lands in the
#: paper's ~1300-1600 s band (Figure 6 y-axis up to 2000 s).  I/O
#: volumes are *effective* bytes per point and iteration — including
#: the Hadoop-style text serialization, temporary files and re-reads a
#: real deployment performs — sized so that on Stampede's contended
#: Lustre the non-scaling I/O fraction reproduces the paper's speedup
#: gap (RP 2.4 vs RP-YARN 3.2 at 32 tasks, 1M points) while staying
#: negligible on Wrangler ("we do not see the effect on Wrangler").
CALIBRATED_KMEANS_COST = KMeansCost(
    cpu_per_pcd=3.4e-5,             # ref-CPU seconds per point*cluster*dim
    bytes_per_point_in=2_000.0,
    bytes_per_point_shuffle=1_200.0,
    base_memory_mb=1536,
    memory_bytes_per_point=4_000.0,
)

#: Job-visible Lustre bandwidth differs from the filesystem's peak:
#: a single job doing many small, latency-bound I/O operations sees a
#: small share.  Stampede's value makes plain-RP I/O the paper's
#: non-scaling term; Wrangler ("a special purpose data-intensive
#: supercomputer") was provisioned so I/O never saturates.
LUSTRE_JOB_BW = {
    "stampede": (30e6, 30e6, 0.040),    # aggregate, per-stream, latency
    "wrangler": (100e6, 50e6, 0.015),
    # Leadership-class shares (weak-scaling scenarios, not calibrated
    # against the paper): a single job sees a wider slice of the
    # center-wide filesystem than on the 2016 testbeds.
    "frontera": (3e9, 1e9, 0.015),
    "summit": (5e9, 2e9, 0.010),
}


def scenario_label(points: int, clusters: int) -> str:
    return f"{points:,} points / {clusters:,} clusters"
