"""Session profiling utilities (the radical.analytics counterpart).

RADICAL-Pilot sessions record state-transition timestamps for every
pilot and unit; the paper's Figure 5 is exactly such an analysis.
These helpers turn the handles' histories into the durations and
series the evaluation plots:

* per-unit phase durations (scheduling delay, staging, execution);
* concurrency over time (how many units were EXECUTING at t).

All functions are duck-typed over "anything with ``history`` /
``timestamp()``": client-side handles, or the live views a
:class:`repro.telemetry.ProfilerBridge` reconstructs from the event
stream mid-run — the same analyses work without waiting for the run
to finish.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.states import UnitState
from repro.core.unit import ComputeUnit

#: The unit phases reported by :func:`unit_phases`, as (label, from, to).
UNIT_PHASES = [
    ("queue", UnitState.UMGR_SCHEDULING, UnitState.AGENT_STAGING_INPUT),
    ("stage_in", UnitState.AGENT_STAGING_INPUT, UnitState.AGENT_SCHEDULING),
    ("schedule", UnitState.AGENT_SCHEDULING, UnitState.EXECUTING),
    ("execute", UnitState.EXECUTING, UnitState.AGENT_STAGING_OUTPUT),
    ("stage_out", UnitState.AGENT_STAGING_OUTPUT, UnitState.DONE),
]


def unit_phases(unit: ComputeUnit) -> Dict[str, Optional[float]]:
    """Durations of each pipeline phase for one unit (None = not seen)."""
    out: Dict[str, Optional[float]] = {}
    for label, start, end in UNIT_PHASES:
        t0, t1 = unit.timestamp(start), unit.timestamp(end)
        out[label] = None if t0 is None or t1 is None else t1 - t0
    return out


def phase_means(units: Iterable[ComputeUnit]
                ) -> Dict[str, Optional[float]]:
    """Mean duration per phase over units that completed the phase.

    Every :data:`UNIT_PHASES` label is present in the result; a phase
    no unit completed maps to ``None`` (mirroring
    :func:`unit_phases`), so downstream consumers can index any phase
    without guarding for partial histories.
    """
    sums: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for unit in units:
        for label, value in unit_phases(unit).items():
            if value is not None:
                sums[label] = sums.get(label, 0.0) + value
                counts[label] = counts.get(label, 0) + 1
    return {label: sums[label] / counts[label] if counts.get(label)
            else None
            for label, _, _ in UNIT_PHASES}


def concurrency_series(units: Iterable[ComputeUnit],
                       state: UnitState = UnitState.EXECUTING
                       ) -> List[Tuple[float, int]]:
    """(time, active-count) steps for units residing in ``state``.

    A unit is "in" the state from its entry timestamp until its next
    recorded transition.
    """
    deltas: List[Tuple[float, int]] = []
    for unit in units:
        history = unit.history
        for i, (t, s) in enumerate(history):
            if s is state:
                deltas.append((t, +1))
                if i + 1 < len(history):
                    deltas.append((history[i + 1][0], -1))
    deltas.sort()
    series: List[Tuple[float, int]] = []
    active = 0
    for t, d in deltas:
        active += d
        if series and series[-1][0] == t:
            series[-1] = (t, active)
        else:
            series.append((t, active))
    return series


def peak_concurrency(units: Iterable[ComputeUnit],
                     state: UnitState = UnitState.EXECUTING) -> int:
    """Maximum number of units simultaneously in ``state``."""
    series = concurrency_series(units, state)
    return max((count for _, count in series), default=0)

