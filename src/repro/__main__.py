"""Command-line entry point: regenerate the paper's experiments.

Usage::

    python -m repro figure5              # pilot + CU startup tables
    python -m repro figure6 [--quick]    # the K-Means grid
    python -m repro ablations            # A1-A3
    python -m repro sensitivity          # the Lustre-bandwidth sweep
    python -m repro all [--quick]        # everything above
    python -m repro trace [--output DIR] # one traced K-Means run
    python -m repro sweep figure6 --jobs 4 --output results.json
    python -m repro sweep --list         # list the registered grids
    python -m repro sweep chaos --run-dir runs/c1       # crash-safe
    python -m repro sweep chaos --run-dir runs/c1 --resume
    python -m repro checkpoint bag --store ckpt --at 120
    python -m repro restore ckpt [--until T]

``--quick`` restricts Figure 6 to the smallest and largest scenarios
at 8 and 32 tasks (16 cells instead of 36).

``trace`` runs a single telemetry-enabled K-Means cell and writes
Chrome ``trace_event`` JSON (Perfetto/chrome://tracing), span, event
and metrics files — see :mod:`repro.telemetry`.

``sweep`` runs a cell grid — one of ``figure5``, ``figure6``,
``ablations``, ``sensitivity``, ``chaos`` (fault injection),
``raptor`` (the task-overlay throughput comparison) or ``service``
(the multi-tenant pilot service) — over a process
pool (parallel by default, ``--jobs 1`` for the sequential reference
path) and writes a structured JSON result; ``sweep --list`` (or plain
``sweep``) prints the registered grid names — see
:mod:`repro.experiments.sweeps`.  With ``--run-dir`` the sweep is
crash-safe: the grid's identity is committed up front and every
finished cell is journaled durably, so a killed run resumed with
``--resume`` re-runs only the unfinished cells and produces a
byte-identical aggregate digest; ``--max-cells N`` bounds one
invocation for incremental runs.

``checkpoint`` launches a registered scenario (``checkpoint --list``
names them), optionally advances the clock with ``--at T``, and writes
a crash-safe snapshot into a content-addressed store; ``restore``
rebuilds the session in a fresh process by deterministic replay and
*proves* the fingerprint's schema and state digest match before
exiting 0 — see :mod:`repro.persist`.

Every verb is declared in the :data:`repro.cli.REGISTRY` command
registry (name, arguments, runner, exit codes).

``main`` returns the process exit code (0 success, 2 usage errors; 1 is
each verb's documented failure — for ``figure5`` … ``all``, a violated
paper-shape check of :mod:`repro.experiments.tables`) instead of raising
``SystemExit``, so it doubles as the console-script entry point.
"""

from __future__ import annotations

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main())
