"""How one workload is measured.

One measurement = one *measuring child* (a fresh interpreter that sets
up, warms up, runs the timed repeats and — in a traced measurement — one
more repeat under the profile hook) plus, for an untraced measurement,
``EXTRA_SETUPS`` *setup-only* children, so ``setup_s`` is a median over
several independent set-ups rather than one sample.

Everything is single-threaded and sequential (the host has 2 cores):
children run one after another, sweeps use ``jobs=1``, BLAS is pinned to
one thread.  Timings are medians over repeats; values are stored raw —
normalising by an interleaved pure-Python calibration loop was tried and
did not tighten the spread.
"""

from __future__ import annotations

import contextlib
import cProfile
import dataclasses
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from benchmarks.suite import ROOT, SRC, contract
from benchmarks.suite.trace import LAYERS, aggregate
from benchmarks.suite.workloads import WORKLOADS, Workload

#: Setup-only children per untraced measurement (so 5 set-ups in all:
#: the first child of a workload is often ~0.2 s slower than the rest,
#: and a median of 5 shrugs one outlier off).  ~0.4-1 s each.
EXTRA_SETUPS = 4
#: The warm-up repeat runs the workload at this share of its size.
WARMUP_SCALE = 0.05
#: Timed repeats of ``python -m benchmarks.suite run`` by default.
DEFAULT_REPEATS = 5
#: With a ``--seconds`` budget: never fewer / never more timed repeats.
MIN_REPEATS, MAX_REPEATS = 3, 9
#: A traced measurement needs untraced walls only as the baseline of the
#: two overhead ratios, so it runs this many.
TRACED_BASELINE_REPEATS = 3

RESULTS = Path(__file__).resolve().parent / "results"


# ------------------------------------------------------------- one repeat
def run_repeat(workload: Workload, inputs: Dict[str, Any],
               traced: bool = False, telemetry: bool = False
               ) -> Dict[str, Any]:
    """Fresh world, ``gc.collect()``, timed ``drive``, then ``check``.

    GC stays enabled during the timed region.  ``telemetry`` installs
    the program's own telemetry hub on the world's environment first
    (only meaningful where ``build`` exposes a testbed).
    """
    world = workload.build(inputs)
    world["inputs"] = inputs
    hub = None
    if telemetry:
        import repro.telemetry
        hub = repro.telemetry.install(world["testbed"].env)
    profile = cProfile.Profile() if traced else contextlib.nullcontext()
    gc.collect()
    collections0 = sum(s["collections"] for s in gc.get_stats())
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with profile:
        workload.drive(world)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    collections = sum(s["collections"] for s in gc.get_stats()) - collections0
    return {"wall": wall, "cpu": cpu, "gc": collections,
            "outcome": dataclasses.asdict(workload.check(world)),
            "trace": aggregate(profile) if traced else None,
            "telemetry_events": hub.bus.emitted if hub is not None else 0}


# ------------------------------------------------------------ child side
def child_main(name: str, seed: int, scale: float, t_spawn: float,
               seconds: Optional[float], repeats: Optional[int],
               traced: bool, setup_only: bool) -> Dict[str, Any]:
    """Runs inside the fresh interpreter; returns the child's report.

    ``t_spawn`` is the parent's ``time.monotonic()`` just before the
    spawn (CLOCK_MONOTONIC is system-wide on Linux), so ``setup_s``
    includes interpreter start and imports.
    """
    workload = WORKLOADS[name]
    inputs = workload.prepare(seed, scale)
    run_repeat(workload, workload.prepare(seed, scale * WARMUP_SCALE))
    setup_s = time.monotonic() - t_spawn
    report: Dict[str, Any] = {"setup_s": setup_s, "repeats": []}
    if not setup_only:
        # The first full-size repeat grows the heap to its working size
        # (first-touch page faults: 0.2-9 s for K-Means on this host),
        # which is the process warming up, not the workload: run it
        # untimed and report it beside the samples.
        report["first_repeat_s"] = run_repeat(workload, inputs)["wall"]
        started = time.perf_counter()
        while True:
            report["repeats"].append(run_repeat(workload, inputs))
            count = len(report["repeats"])
            if repeats is not None:
                if count >= repeats:
                    break
            elif count >= MAX_REPEATS or (
                    count >= MIN_REPEATS
                    and time.perf_counter() - started >= seconds):
                break
        if traced:
            report["traced"] = run_repeat(workload, inputs, traced=True)
            if name == "units-fork":
                report["telemetry_on"] = run_repeat(
                    workload, inputs, telemetry=True)
    report["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return report


# ----------------------------------------------------------- parent side
def _spawn(name: str, seed: int, scale: float, extra: List[str]
           ) -> Dict[str, Any]:
    env = dict(os.environ)
    env.update({
        # Steady children: one BLAS thread (jobs=1 everywhere), fixed
        # str hashing, and no import-time .pyc writes into the checkout.
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONPATH": os.pathsep.join([str(ROOT), str(SRC)]),
        # Keep freed heap inside the child instead of handing it back
        # to the kernel: on this (virtualised) host the first touch of
        # a fresh page costs ~10x a reused one, and K-Means churns
        # 400 MB temporaries — without this paper-figs repeats spread
        # 4-9 s, with it 2.3-2.5 s.
        "MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(1 << 36),
        # Journals, snapshot stores and anything else temporary stay
        # inside the checkout.
        "TMPDIR": str(RESULTS),
    })
    RESULTS.mkdir(exist_ok=True)
    env.pop("REPRO_SANITIZE", None)
    command = [sys.executable, "-m", "benchmarks.suite", "child",
               "--workload", name, "--seed", str(seed),
               "--scale", repr(scale),
               "--t-spawn", repr(time.monotonic()), *extra]
    done = subprocess.run(command, env=env, cwd=ROOT, check=False,
                          stdout=subprocess.PIPE, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(
            f"{name}: child exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median and quartiles of the timed repeats (n is printed beside
    them; with n=5 no higher percentile is reportable).

    Inclusive quartiles: the handful of repeats is the whole population,
    and the exclusive method would put a single outlier among five
    straight into q3.
    """
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def measure(name: str, seed: int = 42, seconds: Optional[float] = None,
            repeats: Optional[int] = None, traced: bool = False,
            scale: float = 1.0) -> Dict[str, Any]:
    """Measure one workload; returns its metrics and raw samples.

    An untraced measurement yields the end-to-end metrics from
    ``repeats`` timed repeats (exact count) or as many as fit
    ``seconds`` (clamped to ``MIN_REPEATS``..``MAX_REPEATS``).  A traced
    one always runs ``TRACED_BASELINE_REPEATS`` plus the traced repeat,
    adds every per-layer metric and writes
    ``results/trace_<workload>.json``.
    """
    if traced:
        repeats = TRACED_BASELINE_REPEATS
    elif repeats is None and seconds is None:
        repeats = DEFAULT_REPEATS
    extra = (["--repeats", str(repeats)] if repeats is not None
             else ["--seconds", repr(float(seconds))])
    report = _spawn(name, seed, scale, extra + ["--traced"] * traced)
    setups = [report["setup_s"]]
    if not traced:
        setups += [_spawn(name, seed, scale, ["--setup-only"])["setup_s"]
                   for _ in range(EXTRA_SETUPS)]
    result = assemble(name, seed, scale, report, setups)
    if traced:
        with open(RESULTS / f"trace_{name}.json", "w") as fh:
            json.dump(result.pop("trace"), fh, indent=1)
    return result


def assemble(name: str, seed: int, scale: float, report: Dict[str, Any],
             setups: List[float]) -> Dict[str, Any]:
    """Fold a measuring child's report into metrics."""
    traced = "traced" in report
    runs = report["repeats"]
    first = runs[0]["outcome"]
    every = runs + [report[k] for k in ("traced", "telemetry_on")
                    if k in report]
    attempted = sum(r["outcome"]["attempted"] for r in every)
    failed = sum(r["outcome"]["failed"] for r in every)
    # A repeat whose simulated facts differ from repeat 1 is a failure:
    # the simulation is deterministic in the seed, traced or not, and
    # telemetry must not perturb it either.
    failed += sum(r["outcome"]["digest"] != first["digest"] for r in every)
    walls = [r["wall"] for r in runs]
    wall = quartiles(walls)
    rates = quartiles([first["items"] / w for w in walls])
    result: Dict[str, Any] = {
        "workload": name, "seed": seed, "scale": scale, "traced": traced,
        "items": first["items"], "attempted": attempted, "failed": failed,
        "digest": first["digest"],
        "samples": {"wall_s": walls, "setup_s": setups},
        "first_repeat_s": report["first_repeat_s"],
        "quartiles": {"wall_s": wall, "items_per_s": rates,
                      "setup_s": quartiles(setups)},
        "end_to_end": {
            "wall_s": wall["median"],
            "items_per_s": first["items"] / wall["median"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": report["peak_rss_mb"],
            "failed_frac": failed / attempted,
            "sim_makespan_s": first["makespan"],
            "paper_dev_max": first["paper_dev"],
        },
    }
    if traced:
        result["per_layer"] = _per_layer(report, wall["median"])
        result["trace"] = {
            "workload": name, "untraced_wall_s": wall["median"],
            "traced_wall_s": report["traced"]["wall"],
            **report["traced"]["trace"]}
    return result


def _per_layer(report: Dict[str, Any], wall: float) -> Dict[str, float]:
    runs, traced = report["repeats"], report["traced"]
    trace = traced["trace"]
    layers = trace["layers"]
    # Every workload emits every per-layer metric of the contract: 0
    # where the layer does no work or the counter is not publicly
    # reachable from that workload's entry point.
    names = [m["name"] for m in contract.per_layer(contract.load())]
    metrics: Dict[str, float] = dict.fromkeys(names, 0.0)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layers[layer]["self_s"]
        metrics[f"{layer}.calls"] = layers[layer]["calls"]
    # Counts and simulated quantities are equal across repeats; the few
    # host-timed counters (phase walls, rates) get the median.
    metrics.update({
        key: statistics.median(r["outcome"]["counters"][key] for r in runs)
        for key in runs[0]["outcome"]["counters"]})
    unknown = metrics.keys() - set(names)
    if unknown:
        raise KeyError(f"not in BENCHMARK.json: {sorted(unknown)}")
    if not metrics["sim.engine.events"]:
        # The entry point (run_load, run_sweep) owns its Environment,
        # so env.steps is out of reach: count the engine's dispatches
        # into other layers instead (one per process resume/callback).
        metrics["sim.engine.events"] = sum(
            edge["count"] for edge in trace["edges"]
            if edge["from"] == "sim.engine")
    metrics["sim.engine.us_per_event"] = (
        1e6 * layers["sim.engine"]["self_s"] / traced["wall"]
        * wall / max(1, metrics["sim.engine.events"]))
    metrics["host.cpu_s"] = statistics.median(r["cpu"] for r in runs)
    metrics["host.gc_collections"] = statistics.median(
        r["gc"] for r in runs)
    metrics["trace.overhead_frac"] = traced["wall"] / wall - 1.0
    if "telemetry_on" in report:
        on = report["telemetry_on"]
        metrics["telemetry.overhead_frac"] = on["wall"] / wall - 1.0
        metrics["telemetry.events"] = on["telemetry_events"]
    return metrics
