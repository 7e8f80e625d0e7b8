"""The metric contract: names, units, directions and bounds.

``BENCHMARK.json`` at the checkout root is the single source.  Its
format cannot say "exactly equal" and forbids end-to-end metrics that
are 0, so two of this suite's seven end-to-end metrics (``failed_frac``,
``paper_dev_max``) are listed there under ``per_layer``; this module
puts them back and marks the three simulated/deterministic ones as
exact for ``compare``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from benchmarks.suite import ROOT

#: Deterministic in (commit, seed): ``compare`` demands equality within
#: 1e-9 relative instead of a percentage bound.
EXACT = ("sim_makespan_s", "failed_frac", "paper_dev_max")
EXACT_TOLERANCE = 1e-9

#: End-to-end in this suite, filed under ``per_layer`` in the JSON.
_E2E_IN_PER_LAYER = ("failed_frac", "paper_dev_max")


def load() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def end_to_end(contract: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The suite's seven end-to-end metrics, with their bounds."""
    moved = [dict(m, bound=0.0) for m in contract["per_layer"]
             if m["name"] in _E2E_IN_PER_LAYER]
    return [dict(m, bound=0.0) if m["name"] in EXACT else m
            for m in contract["end_to_end"]] + moved


def per_layer(contract: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [m for m in contract["per_layer"]
            if m["name"] not in _E2E_IN_PER_LAYER]
