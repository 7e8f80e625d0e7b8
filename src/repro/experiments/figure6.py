"""Figure 6: K-Means time-to-completion on Stampede and Wrangler.

Grid: 3 scenarios (10k pts/5k clusters, 100k/500, 1M/50; 3-D; 2
iterations) x task counts {8: 1 node, 16: 2, 32: 3} x machines
{Stampede, Wrangler} x runtimes {RADICAL-Pilot, RADICAL-Pilot-YARN}.

Measurement, following §IV-B: time-to-completion of the K-Means run;
"for RADICAL-Pilot-YARN the runtimes include the time required to
download and start the YARN cluster on the allocated resources" — so
the YARN rows add the Mode I LRM setup to the workload span.

K-Means executes for real (NumPy partial sums per unit); the returned
centroids are asserted against the single-process reference, so every
benchmark run re-validates numerical correctness alongside timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analytics import generate_points, kmeans_reference
from repro.analytics.kmeans import run_kmeans_pilot
from repro.experiments.calibration import (
    CALIBRATED_KMEANS_COST,
    DIM,
    ITERATIONS,
    SCENARIOS,
    TASK_CONFIGS,
    agent_config,
)
from repro.experiments.harness import Testbed
from repro.experiments.sweeps import SweepCell, make_cell


@dataclass
class KMeansRow:
    """One bar of Figure 6."""

    machine: str
    flavor: str                 # "RP" | "RP-YARN"
    points: int
    clusters: int
    ntasks: int
    nodes: int
    runtime: float              # seconds, incl. YARN setup for RP-YARN
    lrm_setup: float
    centroids_ok: bool


_POINTS_CACHE: Dict[Tuple[int, int], np.ndarray] = {}
_EXPECTED_CACHE: Dict[Tuple[int, int, int], np.ndarray] = {}


def _points_for(points: int, clusters: int) -> np.ndarray:
    """The scenario's dataset: generated once per process, handed out
    read-only because every later cell shares the same array."""
    key = (points, clusters)
    if key not in _POINTS_CACHE:
        data = generate_points(points, clusters, dim=DIM, seed=1234)
        data.setflags(write=False)
        _POINTS_CACHE[key] = data
    return _POINTS_CACHE[key]


def _expected_for(points: int, clusters: int,
                  iterations: int = ITERATIONS) -> np.ndarray:
    """Single-process reference centroids of :func:`_points_for`'s
    dataset: computed once per process, compared against by every cell."""
    key = (points, clusters, iterations)
    if key not in _EXPECTED_CACHE:
        expected = kmeans_reference(_points_for(points, clusters), clusters,
                                    iterations=iterations)
        expected.setflags(write=False)
        _EXPECTED_CACHE[key] = expected
    return _EXPECTED_CACHE[key]


def run_figure6_cell(machine: str, flavor: str, points: int,
                     clusters: int, ntasks: int, seed: int = 42,
                     lustre_bw: Optional[float] = None,
                     **agent_overrides):
    """Run one (machine, runtime, scenario, task-count) cell.

    ``lustre_bw`` (bytes/s) replaces the machine's calibrated
    job-visible Lustre share (the S1 sweep).  ``agent_overrides`` are
    forwarded to the agent configuration — e.g.
    ``reuse_application_master=True`` to measure the paper's proposed
    optimization on the real workload.
    """
    nodes = TASK_CONFIGS[ntasks]
    lrm = "yarn" if flavor == "RP-YARN" else "fork"
    testbed = Testbed(machine, num_nodes=nodes, seed=seed,
                      lustre_bw=lustre_bw)
    pilot, _, t_active = testbed.start_pilot(
        nodes=nodes, agent_config=agent_config(lrm, **agent_overrides))

    data = _points_for(points, clusters)
    holder: Dict[str, object] = {}

    def workload():
        centroids, units = yield from run_kmeans_pilot(
            testbed.umgr, data, clusters, ntasks=ntasks,
            iterations=ITERATIONS, cost=CALIBRATED_KMEANS_COST)
        holder["centroids"] = centroids

    t0 = testbed.env.now
    kmeans = testbed.env.process(workload())
    yield testbed.session
    testbed.env.run(kmeans)
    span = testbed.env.now - t0

    lrm_setup = pilot.agent_info["lrm_setup_seconds"]
    runtime = span + (lrm_setup if flavor == "RP-YARN" else 0.0)

    ok = np.allclose(holder["centroids"], _expected_for(points, clusters))
    return KMeansRow(machine=machine, flavor=flavor, points=points,
                     clusters=clusters, ntasks=ntasks, nodes=nodes,
                     runtime=runtime, lrm_setup=lrm_setup,
                     centroids_ok=ok)


def cells(root_seed: int = 42, quick: bool = False) -> List[SweepCell]:
    """The Figure 6 K-Means grid: 36 cells, or 16 with ``quick`` (the
    smallest and largest scenario at 8 and 32 tasks)."""
    scenarios, task_counts = SCENARIOS, sorted(TASK_CONFIGS)
    if quick:
        scenarios, task_counts = [SCENARIOS[0], SCENARIOS[-1]], [8, 32]
    return [
        make_cell("figure6", "kmeans", root_seed, machine=machine,
                  points=points, clusters=clusters, ntasks=ntasks,
                  flavor=flavor)
        for machine in ("stampede", "wrangler")
        for points, clusters in scenarios
        for ntasks in task_counts
        for flavor in ("RP", "RP-YARN")
    ]


RUNNERS = {"kmeans": run_figure6_cell}


# ------------------------------------------------------- derived metrics
# Over the sweep's rows: each a :class:`KMeansRow` as a dict.
def speedup(rows: List[dict], machine: str, flavor: str,
            points: int, base_tasks: int = 8,
            top_tasks: int = 32) -> float:
    """Speedup of top_tasks over base_tasks for one scenario/flavor."""
    sel = {r["ntasks"]: r["runtime"] for r in rows
           if (r["machine"], r["flavor"], r["points"])
           == (machine, flavor, points)}
    return sel[base_tasks] / sel[top_tasks]


def yarn_advantage(rows: List[dict], min_tasks: int = 16) -> float:
    """Mean relative runtime reduction of RP-YARN vs RP (>= min_tasks).

    The paper: "In particular for larger number of tasks, we observed
    on average 13% shorter runtimes for RADICAL-Pilot-YARN."
    """
    runtime = {(r["machine"], r["flavor"], r["points"], r["ntasks"]):
               r["runtime"] for r in rows}
    pairs = [(rp, runtime[machine, "RP-YARN", points, ntasks])
             for (machine, flavor, points, ntasks), rp in runtime.items()
             if flavor == "RP" and ntasks >= min_tasks
             and (machine, "RP-YARN", points, ntasks) in runtime]
    if not pairs:
        return 0.0
    return float(np.mean([(rp - ry) / rp for rp, ry in pairs]))
