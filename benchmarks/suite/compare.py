"""``compare A.json B.json``: is B within the bounds of A?

One row per (end-to-end metric, workload): both medians with their
quartiles, how much worse B is, the bound, and a label —

* ``within``: B's median is no worse than A's by more than the bound;
* ``regressed``: it is worse by more than the bound;
* ``unresolved``: the run-to-run spread (interquartile range over the
  median, either side) is wider than the bound and the two sets of runs
  overlap, so the medians decide nothing.

Deterministic metrics (``contract.EXACT``) must be equal within 1e-9
relative.  Per-layer counts that differ between the two files are
listed too, but only end-to-end rows set the exit code (1 on any
``regressed``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from benchmarks.suite import contract
from benchmarks.suite.measure import quartiles

def repeats_exactly(metric: Dict[str, Any]) -> bool:
    """Counts and simulated quantities must repeat; host times, host
    rates and the two overhead ratios need not."""
    return (metric["unit"] not in ("s", "1/s", "us")
            and not metric["name"].endswith("overhead_frac"))


def samples_of(result: Dict[str, Any], metric: str) -> List[float]:
    """Every sample a result holds for ``metric`` (one if not timed)."""
    samples = result["samples"]
    if metric in samples:
        return samples[metric]
    if metric == "items_per_s":
        return [result["items"] / wall for wall in samples["wall_s"]]
    return [result["end_to_end"][metric]]


def judge(a: List[float], b: List[float], better: str, bound: float,
          exact: bool = False) -> Dict[str, Any]:
    """Label B's samples against A's (see the module docstring)."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    base = abs(qa["median"])
    worse_by = sign * (qb["median"] - qa["median"]) / base if base \
        else sign * (qb["median"] - qa["median"])
    if exact:
        label = "regressed" if worse_by > contract.EXACT_TOLERANCE \
            else "within"
        return {"a": qa, "b": qb, "worse_by": worse_by, "label": label}
    spread = max(((q["q3"] - q["q1"]) / abs(q["median"])
                  for q in (qa, qb) if q["median"]), default=0.0)
    if better == "lower":
        apart = max(b) < min(a) or min(b) > max(a)
    else:
        apart = min(b) > max(a) or max(b) < min(a)
    if spread > bound and not apart:
        label = "unresolved"
    else:
        label = "regressed" if worse_by > bound else "within"
    return {"a": qa, "b": qb, "worse_by": worse_by, "label": label}


def compare(a: Dict[str, Any], b: Dict[str, Any],
            spec: Dict[str, Any]) -> Dict[str, Any]:
    rows = []
    differing = []
    for name in (w["name"] for w in spec["workloads"]):
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in contract.end_to_end(spec):
            verdict = judge(samples_of(wa, metric["name"]),
                            samples_of(wb, metric["name"]),
                            metric["better"], metric["bound"],
                            exact=metric["name"] in contract.EXACT)
            rows.append({"workload": name, "metric": metric["name"],
                         "unit": metric["unit"], "bound": metric["bound"],
                         **verdict})
        la, lb = wa.get("per_layer", {}), wb.get("per_layer", {})
        for metric in contract.per_layer(spec):
            key = metric["name"]
            if (repeats_exactly(metric) and key in la and key in lb
                    and la[key] != lb[key]):
                differing.append((name, key, la[key], lb[key]))
    return {"rows": rows, "differing_counts": differing}


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    for key in ("seed", "scale"):
        if a["provenance"][key] != b["provenance"][key]:
            print(f"warning: {key} differs "
                  f"({a['provenance'][key]} vs {b['provenance'][key]}); "
                  f"deterministic metrics will not match")
    report = compare(a, b, contract.load())
    header = (f"{'workload':<18} {'metric':<15} {'A median [q1..q3]':<34} "
              f"{'B median [q1..q3]':<34} {'worse by':>9} {'bound':>7}  label")
    print(header)
    print("-" * len(header))

    def cell(q):
        return f"{q['median']:.6g} [{q['q1']:.4g}..{q['q3']:.4g}] n={q['n']}"

    for row in report["rows"]:
        print(f"{row['workload']:<18} {row['metric']:<15} "
              f"{cell(row['a']):<34} {cell(row['b']):<34} "
              f"{row['worse_by']:>+9.2%} {row['bound']:>7.2%}  "
              f"{row['label']}")
    for name, key, va, vb in report["differing_counts"]:
        print(f"count differs: {name} {key}: {va} vs {vb}")
    labels = [row["label"] for row in report["rows"]]
    print(f"{labels.count('within')} within, "
          f"{labels.count('unresolved')} unresolved, "
          f"{labels.count('regressed')} regressed; "
          f"{len(report['differing_counts'])} per-layer counts differ")
    return 1 if "regressed" in labels else 0
