"""Experiment harnesses: one module per sweep grid.

Each harness builds a fresh simulated testbed (machine template, batch
system, session), runs the paper's measurement procedure, and returns
structured rows that the benchmark suite prints next to the
paper-reported values.  All harnesses are deterministic for a given
seed.  A grid is its module: ``cells(root_seed, quick)`` lists it, and
``RUNNERS`` holds one function per cell kind, which both
``python -m repro sweep`` and the paper verbs call
(:mod:`~repro.experiments.sweeps`).

* :mod:`~repro.experiments.figure5` — Pilot startup (main) and
  Compute-Unit startup (inset) for RP / RP-YARN Mode I / Mode II on
  Stampede and Wrangler.
* :mod:`~repro.experiments.figure6` — K-Means time-to-completion over
  the three scenarios x three task counts x two machines x two
  runtimes.
* :mod:`~repro.experiments.ablations` — A1 integration level, A2 Spark
  deployment mode, A3 AM re-use.
* :mod:`~repro.experiments.sensitivity` — the Lustre-bandwidth sweep
  that locates the RP vs RP-YARN crossover.
* :mod:`~repro.experiments.chaos` — completion under injected faults:
  a poisoned bag, NodeManager loss, HDFS re-replication.
* :mod:`~repro.experiments.raptor` — task-overlay vs per-unit YARN
  throughput, result equivalence, worker loss.
* :mod:`~repro.experiments.service` — the multi-tenant service: load,
  fair share, admission, sharding.

Shared plumbing: :mod:`~repro.experiments.calibration` (every tunable
constant, with the paper statement each one is calibrated against),
:mod:`~repro.experiments.harness` (the testbed) and
:mod:`~repro.experiments.tables` (reports and paper checks).
"""

from repro.experiments.calibration import (
    CALIBRATED_AGENT,
    CALIBRATED_KMEANS_COST,
    CALIBRATED_RMS,
    CALIBRATED_YARN,
    SCENARIOS,
    TASK_CONFIGS,
)
from repro.experiments.figure5 import (
    run_figure5_pilot_startup,
    run_figure5_unit_startup,
)
from repro.experiments.figure6 import run_figure6, run_figure6_cell

__all__ = [
    "CALIBRATED_AGENT",
    "CALIBRATED_KMEANS_COST",
    "CALIBRATED_RMS",
    "CALIBRATED_YARN",
    "SCENARIOS",
    "TASK_CONFIGS",
    "run_figure5_pilot_startup",
    "run_figure5_unit_startup",
    "run_figure6",
    "run_figure6_cell",
]
