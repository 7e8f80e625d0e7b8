"""The ``raptor`` sweep grid: speedup, equivalence, digest stability."""

from repro.experiments.raptor import (
    run_raptor_equivalence,
    run_raptor_faults,
    run_raptor_throughput,
)
from repro.experiments.sweeps import build_cells, finish, run_cell, run_sweep


def _quick_cells(kinds=None):
    cells = build_cells("raptor", root_seed=42, quick=True)
    if kinds is None:
        return cells
    return [c for c in cells if c.kind in kinds]


def test_overlay_beats_per_unit_yarn_by_5x_at_1e5_tasks():
    """ISSUE acceptance: >= 5x over the per-unit YARN path at 1e5."""
    row = finish(run_raptor_throughput(100_000))
    assert row.tasks_completed == 100_000 and row.tasks_failed == 0
    assert row.speedup >= 5.0, row
    # the comparison is apples-to-apples: same machine, same pilot size
    assert row.overlay_tasks_per_sec > row.per_unit_tasks_per_sec


def test_equivalence_both_paths_identical_results():
    row = finish(run_raptor_equivalence(ntasks=64))
    assert row.identical, (row.overlay_digest, row.per_unit_digest)
    assert row.overlay_digest == row.per_unit_digest


def test_fault_cell_survives_worker_node_crash():
    row = finish(run_raptor_faults(ntasks=100, seed=7))
    assert row.workers_lost > 0
    assert row.tasks_retried > 0
    assert row.all_completed and row.tasks_failed == 0
    assert row.tasks_completed == 100


def test_raptor_sweep_parallel_matches_sequential():
    """ISSUE acceptance: --jobs N digest byte-identical to --jobs 1."""
    cells = _quick_cells()
    sequential = run_sweep("raptor", root_seed=42, jobs=1, cells=cells)
    parallel = run_sweep("raptor", root_seed=42, jobs=2, cells=cells)
    assert parallel.aggregate_json() == sequential.aggregate_json()
    assert parallel.digest() == sequential.digest()


def test_raptor_cell_identical_with_sanitizer_armed(monkeypatch):
    """ISSUE acceptance: REPRO_SANITIZE=1 never changes the rows."""
    cell = _quick_cells(kinds=("throughput",))[0]
    plain = run_cell(cell)["rows"]
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitized = run_cell(cell)["rows"]
    assert sanitized == plain


def test_quick_grid_covers_all_three_kinds():
    kinds = {c.kind for c in _quick_cells()}
    assert kinds == {"throughput", "equivalence", "faults"}
