"""Declarative experiment sweeps with a process-pool runner.

The paper's evaluation is a grid of *independent* simulated cells —
machine x flavor x scenario x task-count x seed.  Each grid in
:data:`GRIDS` is its own experiment module, which lists the grid as
flat cells and holds one function per cell kind (:func:`grid_module`);
this module fans the cells out over a
``concurrent.futures.ProcessPoolExecutor``:

* every cell carries a deterministic seed derived from the root seed
  and the cell's identity (not its position), so subsetting or
  reordering a grid never shifts another cell's randomness;
* results are aggregated in declaration order regardless of worker
  completion order, so ``--jobs N`` produces row-for-row (and after
  canonical JSON serialization, byte-for-byte) identical aggregates to
  the sequential ``--jobs 1`` reference path;
* per-cell and total wall-clock timings are captured separately from
  the scientific rows, so timing jitter never contaminates the
  deterministic output.

Used by ``python -m repro sweep`` and the determinism regression tests.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import (asdict, dataclass, field, is_dataclass,
                         replace)
from types import ModuleType
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.persist.store import canonical_json, text_digest

GRIDS = ("figure5", "figure6", "ablations", "sensitivity", "chaos",
         "raptor", "service")


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of a sweep: a kind tag plus its parameters.

    ``params`` is a sorted tuple of (name, value) pairs so cells are
    hashable, picklable, and have a stable string identity.
    """

    grid: str
    kind: str
    params: Tuple[Tuple[str, Any], ...]
    seed: int

    @property
    def key(self) -> str:
        """Stable identity: grid/kind plus the sorted parameters."""
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.grid}/{self.kind}({inner})"

    def param(self, name: str) -> Any:
        return dict(self.params)[name]


def cell_seed(root_seed: int, key: str) -> int:
    """Deterministic per-cell seed from the root seed + cell identity.

    Uses sha256 (not ``hash()``) so the value is stable across
    processes and PYTHONHASHSEED settings.
    """
    digest = hashlib.sha256(f"{root_seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def make_cell(grid: str, kind: str, root_seed: int,
              **params: Any) -> SweepCell:
    """A cell of ``grid`` with its seed derived from its identity."""
    cell = SweepCell(grid=grid, kind=kind,
                     params=tuple(sorted(params.items())), seed=0)
    return replace(cell, seed=cell_seed(root_seed, cell.key))


def grid_module(grid: str) -> ModuleType:
    """The experiment module that owns ``grid``.

    A grid is its module, ``repro.experiments.<grid>``: it exposes
    ``cells(root_seed, quick)``, the declarative cell list, and
    ``RUNNERS``, one cell body per kind: a generator function, called as
    ``fn(seed=cell.seed, **cell.params)``, that builds its world, yields
    its Session once mid-flight (``None`` if it has no one Session) and
    returns a row or a list of rows.  Only names in :data:`GRIDS` are
    imported, and only when asked for.
    """
    if grid not in GRIDS:
        raise ValueError(f"unknown sweep grid {grid!r}; known: {GRIDS}")
    return importlib.import_module(f"repro.experiments.{grid}")


def build_cells(grid: str, root_seed: int = 42,
                quick: bool = False) -> List[SweepCell]:
    """The named grid's declarative cell list.

    Guarantees cell-key uniqueness: two cells with the same key would
    share a seed and silently shadow each other in keyed aggregates.
    """
    cells = grid_module(grid).cells(root_seed, quick)
    seen: Dict[str, SweepCell] = {}
    for cell in cells:
        if cell.key in seen:
            raise ValueError(
                f"duplicate sweep cell key {cell.key!r} in grid {grid!r}")
        seen[cell.key] = cell
    return cells


# ------------------------------------------------------------ cell runner
def _jsonify(value: Any) -> Any:
    """Dataclasses / numpy scalars -> plain JSON-serializable values."""
    if is_dataclass(value) and not isinstance(value, type):
        return _jsonify(asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if hasattr(value, "item") and not isinstance(
            value, (bool, int, float, str)):
        return value.item()          # numpy scalar
    return value


def finish(body: Generator) -> Any:
    """Run a cell body, fresh or paused at its yield (``session.cell``),
    to its end; return its rows."""
    try:
        while True:
            next(body)
    except StopIteration as done:
        return done.value


def run_cell(cell: SweepCell) -> Dict[str, Any]:
    """Execute one cell (in this process) and capture its wall time.

    Top-level and picklable by name, so it doubles as the process-pool
    work function.
    """
    runner = grid_module(cell.grid).RUNNERS[cell.kind]
    # Host-side wall time of the runner, reported but never fed back
    # into the simulation — results stay seed-deterministic.
    t0 = time.perf_counter()
    out = finish(runner(seed=cell.seed, **dict(cell.params)))
    wall = time.perf_counter() - t0
    rows = _jsonify(out if isinstance(out, list) else [out])
    return {"key": cell.key, "seed": cell.seed, "rows": rows,
            "wall_seconds": wall, "pid": os.getpid()}


# ------------------------------------------------------------ sweep driver
@dataclass
class SweepRun:
    """Everything one sweep produced: deterministic rows + timing meta.

    ``results`` holds completed cells in declaration order — journaled
    cells recovered on resume and freshly executed ones merged into one
    list, so the aggregate (and its digest) is byte-identical whether a
    sweep ran uninterrupted or was killed and resumed any number of
    times.
    """

    grid: str
    root_seed: int
    jobs: int
    results: List[Dict[str, Any]] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Cells freshly executed by *this* call (resume skips journaled
    #: ones; ``max_cells`` truncates).
    executed: int = -1
    #: Cells recovered from the journal instead of re-run.
    skipped: int = 0
    #: Whether every cell of the grid has a result.
    complete: bool = True
    #: The journal directory, when this run was crash-safe.
    run_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.executed < 0:
            self.executed = len(self.results)

    def aggregate(self) -> Dict[str, Any]:
        """The deterministic aggregate: cells in declaration order, no
        timings.  Identical for any ``jobs`` value."""
        return {
            "grid": self.grid,
            "root_seed": self.root_seed,
            "cells": [{"key": r["key"], "seed": r["seed"],
                       "rows": r["rows"]} for r in self.results],
        }

    def aggregate_json(self) -> str:
        """Canonical JSON of :meth:`aggregate` — byte-comparable."""
        return canonical_json(self.aggregate())

    def digest(self) -> str:
        """sha256 of the canonical aggregate, for quick comparisons."""
        return text_digest(self.aggregate_json())

    def report(self) -> Dict[str, Any]:
        """Aggregate + timing metadata (the JSON artifact written by
        ``repro sweep --output``)."""
        return {
            **self.aggregate(),
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "digest": self.digest(),
            "complete": self.complete,
            "executed": self.executed,
            "skipped": self.skipped,
            "cell_timings": {r["key"]: r["wall_seconds"]
                             for r in self.results},
        }


def sweep_spec(grid: str, root_seed: int, quick: bool,
               cells: List[SweepCell]) -> Dict[str, Any]:
    """A sweep's journaled identity: everything that defines its rows.

    ``jobs`` is deliberately absent — the aggregate is independent of
    parallelism, so a sweep may be killed under ``--jobs 8`` and
    resumed under ``--jobs 1`` against the same journal.
    """
    return {"grid": grid, "root_seed": root_seed, "quick": quick,
            "cells": [{"key": c.key, "seed": c.seed} for c in cells]}


def run_sweep(grid: str, root_seed: int = 42, jobs: Optional[int] = None,
              quick: bool = False,
              cells: Optional[List[SweepCell]] = None,
              run_dir: Optional[str] = None, resume: bool = False,
              max_cells: Optional[int] = None) -> SweepRun:
    """Run a grid, sequentially (``jobs=1``) or over a process pool.

    ``jobs=None`` uses ``os.cpu_count()``.  ``jobs=1`` is the in-process
    sequential reference path — no pool, no pickling — and is guaranteed
    to produce the same aggregate as any parallel run.

    ``run_dir`` makes the run crash-safe: the sweep's identity is
    committed to ``spec.json`` before any cell starts, and each cell's
    result is journaled durably (fsync) the moment it completes — in
    the parent process, so this works under the process pool too.
    ``resume=True`` re-runs only cells the journal does not already
    hold; resuming a complete journal executes nothing and returns the
    recovered (byte-identical) run.  ``max_cells`` caps how many cells
    *this* call executes, for incremental runs and deterministic
    interruption tests.
    """
    if cells is None:
        cells = build_cells(grid, root_seed=root_seed, quick=quick)
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if max_cells is not None and max_cells < 0:
        raise ValueError(f"max_cells must be >= 0, got {max_cells}")
    journal = None
    done: Dict[str, Dict[str, Any]] = {}
    if run_dir is not None:
        from repro.persist import JournalError, SweepJournal
        journal = SweepJournal(run_dir)
        journal.write_spec(sweep_spec(grid, root_seed, quick, cells))
        done = journal.completed()
        if done and not resume:
            raise JournalError(
                f"run dir {run_dir} already journals {len(done)} "
                f"completed cell(s); resume with --resume or start a "
                f"fresh run dir")
    elif resume:
        raise ValueError("resume=True requires a run_dir")
    pending = [cell for cell in cells if cell.key not in done]
    if max_cells is not None:
        pending = pending[:max_cells]
    # Host-side sweep wall time (progress reporting only, not results).
    t0 = time.perf_counter()
    fresh: Dict[str, Dict[str, Any]] = {}
    try:
        if jobs == 1 or len(pending) <= 1:
            for cell in pending:
                result = run_cell(cell)
                fresh[result["key"]] = result
                if journal is not None:
                    journal.record(result["key"], result)
        else:
            with ProcessPoolExecutor(
                    max_workers=min(jobs, len(pending))) as ex:
                # Journal in completion order for earliest durability;
                # the aggregate is reassembled in declaration order
                # below, so worker finish order never shows through.
                futures = {ex.submit(run_cell, cell): cell
                           for cell in pending}
                for future in as_completed(futures):
                    result = future.result()
                    fresh[result["key"]] = result
                    if journal is not None:
                        journal.record(result["key"], result)
    finally:
        if journal is not None:
            journal.close()
    wall = time.perf_counter() - t0
    merged = {**done, **fresh}
    results = [merged[cell.key] for cell in cells if cell.key in merged]
    return SweepRun(grid=grid, root_seed=root_seed, jobs=jobs,
                    results=results, wall_seconds=wall,
                    executed=len(fresh), skipped=len(done),
                    complete=len(results) == len(cells),
                    run_dir=None if run_dir is None else str(run_dir))


class Sweep:
    """The object-level sweep API: configure, run, resume.

    A thin, picklable-free wrapper over :func:`run_sweep` that pairs a
    grid configuration with an optional crash-safe run directory::

        run = Sweep("figure5").run("runs/fig5")      # journaled
        ...                                          # kill -9 here
        run = Sweep.resume("runs/fig5")              # finishes the rest
        assert run.complete
    """

    def __init__(self, grid: str, root_seed: int = 42,
                 quick: bool = False, jobs: Optional[int] = None,
                 max_cells: Optional[int] = None):
        grid_module(grid)  # an unknown grid fails here, not at run()
        self.grid = grid
        self.root_seed = root_seed
        self.quick = quick
        self.jobs = jobs
        self.max_cells = max_cells

    def run(self, run_dir: Optional[str] = None,
            resume: bool = False) -> SweepRun:
        return run_sweep(self.grid, root_seed=self.root_seed,
                         jobs=self.jobs, quick=self.quick,
                         run_dir=run_dir, resume=resume,
                         max_cells=self.max_cells)

    @classmethod
    def resume(cls, run_dir: str, jobs: Optional[int] = None,
               max_cells: Optional[int] = None) -> SweepRun:
        """Continue a journaled sweep from its run directory alone.

        The sweep's identity is read back from ``spec.json``, so the
        caller needs no memory of the original grid or seed.
        """
        from repro.persist import JournalError, SweepJournal
        spec = SweepJournal(run_dir).read_spec()
        if spec is None:
            raise JournalError(
                f"no sweep journal in {run_dir} (missing spec.json)")
        sweep = cls(grid=spec["grid"], root_seed=spec["root_seed"],
                    quick=spec["quick"], jobs=jobs, max_cells=max_cells)
        return sweep.run(run_dir=run_dir, resume=True)
