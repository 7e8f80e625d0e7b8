"""Crash-safe sweeps: interruption, resume, and digest equivalence.

The contract under test: a sweep killed at any point — between cells
(``max_cells``) or by a real ``SIGKILL`` mid-flight — and resumed from
its run directory re-runs only the unfinished cells and produces an
aggregate digest byte-identical to an uninterrupted ``--jobs 1`` run.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.sweeps import Sweep, build_cells, run_sweep
from repro.persist import JournalError, SweepJournal

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The grids the resume contract is proven on (all ``--quick``).
RESUME_GRIDS = ("figure5", "chaos", "service")


@pytest.fixture(scope="module")
def reference():
    """Uninterrupted jobs=1 digests, computed once per module."""
    cache = {}

    def get(grid):
        if grid not in cache:
            cache[grid] = run_sweep(grid, quick=True, jobs=1).digest()
        return cache[grid]

    return get


@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize("grid", RESUME_GRIDS)
def test_interrupted_sweep_resumes_byte_identically(
        grid, jobs, tmp_path, reference):
    run_dir = tmp_path / "run"
    partial = run_sweep(grid, quick=True, jobs=jobs, run_dir=run_dir,
                        max_cells=2)
    assert partial.executed == 2
    assert not partial.complete

    resumed = Sweep.resume(run_dir, jobs=jobs)
    assert resumed.complete
    assert resumed.skipped == 2
    assert resumed.executed == len(resumed.results) - 2
    assert resumed.digest() == reference(grid)


def test_resuming_a_complete_sweep_is_a_noop(tmp_path, reference):
    run_dir = tmp_path / "run"
    run_sweep("chaos", quick=True, jobs=1, run_dir=run_dir)
    again = Sweep.resume(run_dir)
    assert again.complete
    assert again.executed == 0
    assert again.skipped == len(again.results)
    assert again.digest() == reference("chaos")


def test_parallelism_may_change_across_resume(tmp_path, reference):
    """A sweep killed under ``--jobs 2`` resumes under ``--jobs 1``
    (and vice versa) against the same journal — ``jobs`` is not part
    of the sweep identity."""
    run_dir = tmp_path / "run"
    run_sweep("chaos", quick=True, jobs=2, run_dir=run_dir, max_cells=3)
    resumed = Sweep.resume(run_dir, jobs=1)
    assert resumed.complete
    assert resumed.digest() == reference("chaos")


def test_rerun_without_resume_rejected(tmp_path):
    run_dir = tmp_path / "run"
    run_sweep("chaos", quick=True, jobs=1, run_dir=run_dir, max_cells=1)
    with pytest.raises(JournalError, match="--resume"):
        run_sweep("chaos", quick=True, jobs=1, run_dir=run_dir)


def test_changed_grid_parameters_rejected(tmp_path):
    run_dir = tmp_path / "run"
    run_sweep("chaos", quick=True, jobs=1, run_dir=run_dir, max_cells=1)
    with pytest.raises(JournalError, match="different sweep"):
        run_sweep("chaos", quick=False, jobs=1, run_dir=run_dir,
                  resume=True)
    with pytest.raises(JournalError, match="different sweep"):
        run_sweep("service", quick=True, jobs=1, run_dir=run_dir,
                  resume=True)


def test_resume_without_journal_rejected(tmp_path):
    with pytest.raises(JournalError, match="spec.json"):
        Sweep.resume(tmp_path / "empty")


def test_incremental_runs_accumulate(tmp_path, reference):
    """``--max-cells 1`` repeatedly: every invocation adds exactly one
    cell until the grid is complete."""
    run_dir = tmp_path / "run"
    total = len(build_cells("chaos", quick=True))
    run_sweep("chaos", quick=True, jobs=1, run_dir=run_dir, max_cells=1)
    for done in range(1, total):
        run = run_sweep("chaos", quick=True, jobs=1, run_dir=run_dir,
                        resume=True, max_cells=1)
        assert run.executed == (1 if done < total else 0)
    final = Sweep.resume(run_dir)
    assert final.complete
    assert final.digest() == reference("chaos")


def test_sigkilled_sweep_resumes_byte_identically(tmp_path, reference):
    """The real thing: SIGKILL a journaling sweep subprocess mid-run,
    then resume in this process and match the uninterrupted digest."""
    run_dir = tmp_path / "run"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep", "chaos", "--quick",
         "--jobs", "1", "--run-dir", str(run_dir)],
        cwd=REPO_ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    cells = run_dir / "cells.jsonl"
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break  # finished before we could kill it — still fine
            if cells.exists() and SweepJournal(run_dir).completed():
                break
            time.sleep(0.05)
        else:
            pytest.fail("sweep subprocess journaled nothing in 120s")
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

    journaled = SweepJournal(run_dir).completed()
    assert journaled, "journal empty despite the wait loop"
    resumed = Sweep.resume(run_dir)
    assert resumed.complete
    assert resumed.skipped == len(journaled)
    assert resumed.digest() == reference("chaos")
