"""Command line: ``run``, ``compare`` and the two machine entry points.

    python -m benchmarks.suite run [--seed 42] [--workload W]... \
        [--repeats N] [--scale F] [--out FILE]
    python -m benchmarks.suite compare A.json B.json

``driver`` is what ``BENCHMARK.json``'s command reaches through
``run.py`` (one workload, one result line); ``child`` is the fresh
interpreter a measurement spawns.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, List, Optional

from benchmarks.suite import ROOT, SRC, contract
from benchmarks.suite.compare import compare_files
from benchmarks.suite.measure import (
    DEFAULT_REPEATS,
    RESULTS,
    child_main,
    measure,
)
from benchmarks.suite.workloads import WORKLOADS


# ------------------------------------------------------------------ run
def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=False,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _print_metrics(title: str, specs: List[Dict[str, Any]],
                   values: Dict[str, float],
                   quartiles: Optional[Dict[str, Dict[str, float]]] = None
                   ) -> None:
    print(f"  {title}")
    for spec in specs:
        name = spec["name"]
        line = f"    {name:<40} {values[name]:>16.6g} {spec['unit']}"
        spread = (quartiles or {}).get(name)
        if spread is not None:
            line += (f"   (q1 {spread['q1']:.4g}, q3 {spread['q3']:.4g}, "
                     f"n={spread['n']})")
        print(line)


def cmd_run(args) -> int:
    spec = contract.load()
    names = args.workload or list(WORKLOADS)
    provenance = {
        "commit": _git_commit(), "python": platform.python_version(),
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "seed": args.seed, "scale": args.scale,
        "repeats": args.repeats or DEFAULT_REPEATS,
    }
    out: Dict[str, Any] = {"provenance": provenance, "workloads": {}}
    failed = 0
    # Untraced pass first (the end-to-end numbers), then the traced pass.
    for name in names:
        out["workloads"][name] = result = measure(
            name, seed=args.seed, repeats=args.repeats, scale=args.scale)
        print(f"{name}  ({result['items']:,} items)")
        _print_metrics("end to end", contract.end_to_end(spec),
                       result["end_to_end"], result["quartiles"])
    for name in names:
        traced = measure(name, seed=args.seed, traced=True,
                         scale=args.scale)
        result = out["workloads"][name]
        result["per_layer"] = traced["per_layer"]
        # The traced child re-checks every output too.
        result["traced_failed"] = traced["failed"]
        failed += result["failed"] + traced["failed"]
        print(f"{name}  (traced)")
        _print_metrics("per layer", contract.per_layer(spec),
                       traced["per_layer"])
    provenance["sizes"] = {n: out["workloads"][n]["items"] for n in names}
    path = args.out or RESULTS / "run.json"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    print(f"wrote {path}")
    if failed:
        print(f"FAILED output checks: {failed}", file=sys.stderr)
    return 1 if failed else 0


# --------------------------------------------------------------- driver
def cmd_driver(args) -> int:
    """One workload, one JSON result line (the BENCHMARK.json command)."""
    result = measure(args.workload, seed=args.seed, seconds=args.seconds,
                     traced=bool(args.trace))
    print(json.dumps(result_line(result, contract.load())))
    return 0 if result["failed"] == 0 else 1


def result_line(result: Dict[str, Any], spec: Dict[str, Any]
                ) -> Dict[str, Any]:
    """The driver's result object: the contract's ``end_to_end``
    metrics of an untraced measurement, ``per_layer`` of a traced one."""
    values = dict(result["end_to_end"])
    values.update(result.get("per_layer", {}))
    wanted = spec["per_layer" if result["traced"] else "end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }


def cmd_child(args) -> int:
    report = child_main(args.workload, args.seed, args.scale, args.t_spawn,
                        args.seconds, args.repeats, args.traced,
                        args.setup_only)
    print(json.dumps(report))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run every workload, untraced "
                         "then traced, and write one JSON result")
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--workload", action="append", choices=list(WORKLOADS))
    run.add_argument("--repeats", type=int, default=None)
    run.add_argument("--scale", type=float, default=1.0,
                     help="multiplies every item count; numbers at "
                     "scale != 1 are for smoke runs, never compared")
    run.add_argument("--out", default=None)
    run.set_defaults(func=cmd_run)

    cmp_ = sub.add_parser("compare", help="compare two result files "
                          "against the bounds; exit 1 on a regression")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.set_defaults(func=lambda a: compare_files(a.a, a.b))

    driver = sub.add_parser("driver")
    driver.add_argument("--workload", required=True,
                        choices=list(WORKLOADS))
    driver.add_argument("--seed", type=int, required=True)
    driver.add_argument("--seconds", type=float, required=True)
    driver.add_argument("--trace", type=int, choices=(0, 1), required=True)
    driver.set_defaults(func=cmd_driver)

    child = sub.add_parser("child")
    child.add_argument("--workload", required=True, choices=list(WORKLOADS))
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--scale", type=float, default=1.0)
    child.add_argument("--t-spawn", type=float, required=True)
    child.add_argument("--seconds", type=float, default=None)
    child.add_argument("--repeats", type=int, default=None)
    child.add_argument("--traced", action="store_true")
    child.add_argument("--setup-only", action="store_true")
    child.set_defaults(func=cmd_child)

    args = parser.parse_args(argv)
    if args.command != "compare" and not (SRC / "repro").is_dir():
        print(f"benchmarks.suite: no program to measure at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    return args.func(args)
