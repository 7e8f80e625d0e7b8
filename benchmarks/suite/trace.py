"""Per-layer host-time attribution from outside the program.

A traced repeat runs under ``cProfile`` (the C profile hook; about
2-2.5x wall).  Every profiled function is mapped to a *layer* by the
path of its source file, never by its name, so the attribution survives
renames and deletions inside a layer.  A *boundary call* is a call whose
callee maps to a different layer than its caller; the hook crosses
boundaries 10^6-10^7 times per repeat, so spans are aggregated in memory
per edge (calling layer, layer, entry function) as count / cumulative /
entry-function self time and written out once at the end.

Accounting rules:

* a layer's ``self_s`` is the profiler's own-time of every function in
  that layer — a boundary span's duration minus its child spans, summed;
* time inside a C builtin is charged to the layer that called it (the
  profiler splits a builtin's time per caller, so this is exact);
* a Python callback invoked *through* a builtin (``sorted(key=...)``,
  ``generator.send``) sees the builtin as its caller; the builtin counts
  as the layer that calls it most often (ties: alphabetical).
"""

from __future__ import annotations

import cProfile
from pathlib import PurePath
from typing import Dict, List, Tuple

#: Path prefix (relative to ``src/repro/``, longest match wins) -> layer.
#: Every package directory must be listed: a new package has to be
#: placed deliberately, not fall silently into ``other`` (the smoke test
#: enforces it).  Top-level modules (``api.py``, ``cli.py``...) are
#: facades and map to ``other`` by the fallback below.
LAYER_PATHS: Tuple[Tuple[str, str], ...] = (
    ("sim/", "sim.engine"),
    ("core/unit_manager.py", "core.unit_manager"),
    ("core/db.py", "core.db"),
    ("core/agent/scheduler.py", "core.agent.scheduler"),
    ("core/agent/executor.py", "core.agent.executor"),
    ("core/", "core.other"),
    ("pilot_api/", "core.other"),
    ("yarn/", "yarn"),
    ("hdfs/", "hdfs"),
    ("cluster/storage.py", "cluster.storage"),
    ("cluster/", "cluster.other"),
    ("mapreduce/", "mapreduce"),
    ("spark/", "spark"),
    ("raptor/", "raptor"),
    ("service/", "service"),
    ("persist/", "persist"),
    ("telemetry/", "telemetry"),
    ("faults/", "faults"),
    ("analytics/", "analytics"),
    ("experiments/", "experiments"),
    ("rms/", "launch"),
    ("saga/", "launch"),
    ("hadoop_deploy/", "launch"),
    # Static analysis + sanitizer: off in every benchmark run.
    ("analysis/", "other"),
)

#: Everything outside ``src/repro``: stdlib, NumPy, this driver.
OTHER = "other"

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    layer for _, layer in LAYER_PATHS))

_BY_LENGTH = sorted(LAYER_PATHS, key=lambda pair: -len(pair[0]))


def layer_of(filename: str) -> str:
    """The layer owning ``filename`` (a code object's source path)."""
    parts = PurePath(filename).parts
    for i in range(len(parts) - 1, 0, -1):
        if parts[i] == "repro" and parts[i - 1] == "src":
            rel = "/".join(parts[i + 1:])
            for prefix, layer in _BY_LENGTH:
                if rel.startswith(prefix):
                    return layer
            return OTHER
    return OTHER


def _is_builtin(func: Tuple[str, int, str]) -> bool:
    return func[0] == "~"


def aggregate(profile: cProfile.Profile) -> Dict:
    """Fold a finished profile into per-layer and per-edge numbers.

    ``Profile.stats`` maps ``func -> (cc, nc, tt, ct, {caller: (nc, cc,
    tt, ct)})`` with ``func = (filename, lineno, name)``.
    """
    profile.create_stats()
    stats = profile.stats
    layer_cache: Dict[Tuple[str, int, str], str] = {}

    def resolve(func) -> str:
        layer = layer_cache.get(func)
        if layer is not None:
            return layer
        if not _is_builtin(func):
            layer = layer_of(func[0])
        else:
            # Guard against builtin<->builtin cycles while resolving.
            layer_cache[func] = OTHER
            votes: Dict[str, int] = {}
            for caller, (nc, _, _, _) in stats[func][4].items():
                voted = resolve(caller)
                votes[voted] = votes.get(voted, 0) + nc
            layer = min(votes, key=lambda k: (-votes[k], k)) \
                if votes else OTHER
        layer_cache[func] = layer
        return layer

    self_s = {layer: 0.0 for layer in LAYERS}
    calls_in = {layer: 0 for layer in LAYERS}
    edges: Dict[Tuple[str, str, str], List[float]] = {}
    for func, (_, _, tt, _, callers) in stats.items():
        if _is_builtin(func):
            if not callers:
                self_s[OTHER] += tt
            for caller, (_, _, caller_tt, _) in callers.items():
                self_s[resolve(caller)] += caller_tt
            continue
        layer = resolve(func)
        self_s[layer] += tt
        for caller, (nc, _, caller_tt, caller_ct) in callers.items():
            caller_layer = resolve(caller)
            if caller_layer == layer:
                continue
            calls_in[layer] += nc
            entry = f"{PurePath(func[0]).name}:{func[2]}"
            edge = edges.setdefault((caller_layer, layer, entry),
                                    [0, 0.0, 0.0])
            edge[0] += nc
            edge[1] += caller_ct
            edge[2] += caller_tt
    return {
        "layers": {layer: {"self_s": self_s[layer],
                           "calls": calls_in[layer]} for layer in LAYERS},
        "edges": [
            {"from": src, "layer": dst, "entry": entry, "count": count,
             "cum_s": cum, "entry_self_s": own}
            for (src, dst, entry), (count, cum, own) in sorted(
                edges.items(), key=lambda kv: -kv[1][1])],
    }

