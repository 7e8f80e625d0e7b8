"""The workload runner behind ``python -m repro trace``.

Runs a K-Means workload (the paper's Figure 6 application) on the
calibrated testbed with telemetry installed, then writes the run's
observability artifacts:

* ``trace.json``   — Chrome ``trace_event`` JSON; open in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``;
* ``spans.jsonl``  — the raw span records with explicit parent ids;
* ``events.jsonl`` — every bus event (state transitions, heartbeats,
  container lifecycle, HDFS commits...);
* ``metrics.jsonl``— counters/gauges/histograms keyed on sim time.

Flavors: ``RP`` (plain pilot, fork backend over Lustre) and
``RP-YARN`` (Mode I: the agent bootstraps HDFS+YARN on the
allocation, units run as YARN containers).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

FLAVORS = ("RP", "RP-YARN")


@dataclass
class TraceRun:
    """Everything one traced run produced."""

    machine: str
    flavor: str
    points: int
    clusters: int
    ntasks: int
    nodes: int
    runtime: float               # workload span, seconds (sim)
    lrm_setup: float
    centroids_ok: bool
    span_count: int
    event_count: int
    metric_names: List[str]
    phase_means: Dict[str, Optional[float]]
    peak_concurrency: int
    artifacts: Dict[str, str] = field(default_factory=dict)


def run_traced_kmeans(machine: str = "stampede",
                      flavor: str = "RP-YARN",
                      points: int = 10_000,
                      clusters: int = 8,
                      ntasks: int = 8,
                      iterations: int = 2,
                      seed: int = 42,
                      out_dir: Optional[str] = None) -> TraceRun:
    """Run one telemetry-enabled K-Means cell; optionally write artifacts.

    Raises ``ValueError`` for unknown machines/flavors (the CLI maps
    that to exit code 2).
    """
    # Imports are deferred so ``python -m repro trace --help`` stays fast.
    from repro import telemetry
    from repro.analytics.kmeans import run_kmeans_pilot
    from repro.core import profiler
    from repro.experiments.calibration import (
        CALIBRATED_KMEANS_COST,
        TASK_CONFIGS,
        agent_config,
    )
    from repro.experiments.figure6 import _expected_for, _points_for
    from repro.experiments.harness import MACHINE_TEMPLATES, Testbed

    if machine not in MACHINE_TEMPLATES:
        raise ValueError(f"unknown machine {machine!r}; known: "
                         f"{sorted(MACHINE_TEMPLATES)}")
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; known: "
                         f"{list(FLAVORS)}")
    if ntasks < 1 or points < clusters or clusters < 1:
        raise ValueError("need ntasks >= 1 and points >= clusters >= 1")

    nodes = TASK_CONFIGS.get(ntasks, max(1, (ntasks + 7) // 8))
    lrm = "yarn" if flavor == "RP-YARN" else "fork"

    testbed = Testbed(machine, num_nodes=nodes, seed=seed)
    tel = telemetry.install(testbed.env)
    bridge = tel.profiler_bridge()

    pilot, _, _ = testbed.start_pilot(
        nodes=nodes, agent_config=agent_config(lrm))

    data = _points_for(points, clusters)
    holder: Dict[str, object] = {}

    def workload():
        centroids, units = yield from run_kmeans_pilot(
            testbed.umgr, data, clusters, ntasks=ntasks,
            iterations=iterations, cost=CALIBRATED_KMEANS_COST)
        holder["centroids"] = centroids

    t0 = testbed.env.now
    testbed.run(workload())
    runtime = testbed.env.now - t0

    ok = bool(np.allclose(holder["centroids"],
                          _expected_for(points, clusters, iterations)))

    run = TraceRun(
        machine=machine, flavor=flavor, points=points, clusters=clusters,
        ntasks=ntasks, nodes=nodes, runtime=runtime,
        lrm_setup=pilot.agent_info.get("lrm_setup_seconds", 0.0),
        centroids_ok=ok,
        span_count=len(tel.tracer.spans),
        event_count=len(tel.bus.events),
        metric_names=tel.metrics.names(),
        # The profiler fed from the live stream, not handle histories —
        # the bridge is exercised on every traced run.
        phase_means=profiler.phase_means(bridge.units()),
        peak_concurrency=profiler.peak_concurrency(bridge.units()),
    )
    if out_dir is not None:
        run.artifacts = write_artifacts(tel, out_dir)
    return run


def write_artifacts(tel, out_dir: str) -> Dict[str, str]:
    """Dump trace/spans/events/metrics files; returns name -> path."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "trace": os.path.join(out_dir, "trace.json"),
        "spans": os.path.join(out_dir, "spans.jsonl"),
        "events": os.path.join(out_dir, "events.jsonl"),
        "metrics": os.path.join(out_dir, "metrics.jsonl"),
    }
    with open(paths["trace"], "w") as fh:
        json.dump(tel.tracer.chrome_trace(instants=tel.bus.events), fh)
    with open(paths["spans"], "w") as fh:
        fh.write(tel.tracer.to_jsonl() + "\n")
    with open(paths["events"], "w") as fh:
        fh.write(tel.bus.to_jsonl() + "\n")
    with open(paths["metrics"], "w") as fh:
        fh.write(tel.metrics.to_jsonl() + "\n")
    return paths


def format_report(run: TraceRun) -> str:
    """Human-readable summary for the CLI."""
    lines = [
        f"trace: {run.flavor} K-Means on {run.machine} "
        f"({run.points} pts, {run.clusters} clusters, "
        f"{run.ntasks} tasks on {run.nodes} node(s))",
        f"  workload span      {run.runtime:9.1f} s"
        + (f"  (+ {run.lrm_setup:.1f} s Mode I LRM setup)"
           if run.lrm_setup else ""),
        f"  centroids valid    {run.centroids_ok}",
        f"  spans recorded     {run.span_count}",
        f"  events recorded    {run.event_count}",
        f"  peak concurrency   {run.peak_concurrency}",
        "  phase means (s, via live ProfilerBridge):",
    ]
    for label, value in run.phase_means.items():
        shown = "-" if value is None else f"{value:.2f}"
        lines.append(f"    {label:<10} {shown}")
    if run.metric_names:
        lines.append("  metrics: " + ", ".join(run.metric_names))
    for name, path in run.artifacts.items():
        lines.append(f"  wrote {name:<8} {path}")
    if run.artifacts:
        lines.append("  open trace.json in https://ui.perfetto.dev "
                     "or chrome://tracing")
    return "\n".join(lines)
