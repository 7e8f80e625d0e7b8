"""Sweep runner: grids, seeding, and jobs=N vs jobs=1 determinism."""

import json
import re
from pathlib import Path

import pytest

from repro.experiments import figure5, figure6, sensitivity
from repro.experiments.sweeps import (
    GRIDS,
    SweepCell,
    build_cells,
    cell_seed,
    grid_module,
    run_cell,
    run_sweep,
)


# ------------------------------------------------------------ cell identity
def test_cell_seed_is_stable_and_hash_independent():
    # sha256-derived, so the same identity always maps to the same seed
    assert cell_seed(42, "figure5/pilot-startup(machine=stampede)") == \
        cell_seed(42, "figure5/pilot-startup(machine=stampede)")
    assert cell_seed(42, "a") != cell_seed(42, "b")
    assert cell_seed(42, "a") != cell_seed(43, "a")


def test_cell_seed_depends_on_identity_not_position():
    full = figure6.cells(42)
    quick = figure6.cells(42, quick=True)
    full_by_key = {c.key: c.seed for c in full}
    # every quick cell exists in the full grid with the same seed, even
    # though its list position differs
    for cell in quick:
        assert full_by_key[cell.key] == cell.seed


def test_grid_shapes():
    assert len(figure5.cells()) == 9
    assert len(figure6.cells()) == 36
    assert len(figure6.cells(quick=True)) == 16
    assert len(build_cells("ablations")) == 7
    assert len(build_cells("ablations", quick=True)) == 3
    assert len(sensitivity.cells()) == 8
    assert len(build_cells("chaos")) == 5
    assert len(build_cells("raptor")) == 6
    assert len(build_cells("raptor", quick=True)) == 4
    assert len(build_cells("service")) == 5
    assert len(build_cells("service", quick=True)) == 4
    with pytest.raises(ValueError, match="unknown sweep grid"):
        build_cells("figure99")


def test_grids_tuple_matches_builder_registry():
    """Each GRIDS name resolves to its experiment module, whose builder
    emits only cell kinds its RUNNERS map can run, each kind at least
    once in the full grid (the quick ``ablations`` grid has no K-Means
    cells); no second registry of grids, cell runners or checkpoint
    scenarios comes back."""
    for grid in GRIDS:
        module = grid_module(grid)
        assert module.__name__ == f"repro.experiments.{grid}"
        full, quick = module.cells(42), module.cells(42, quick=True)
        assert {c.grid for c in full + quick} == {grid}
        assert {c.kind for c in full} == set(module.RUNNERS), grid
        assert {c.kind for c in quick} <= set(module.RUNNERS), grid
    src = Path(__file__).resolve().parents[2] / "src"
    banned = re.compile(
        r"_GRID_BUILDERS|_CELL_RUNNERS|\b_run_\w+_cell\b|run_chaos_cell"
        r"|_SCENARIOS|@scenario\(")
    offenders = [f"{path.relative_to(src)}:{n}"
                 for path in sorted(src.rglob("*.py"))
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if banned.search(line)]
    assert offenders == []


#: One pinned (key, seed) pair per grid: seed derivation shifting —
#: a changed key format, a renamed parameter, a different hash — would
#: silently invalidate every committed sweep artifact.  Update these
#: values only on a deliberate, documented seed-scheme change.
PINNED_CELL_SEEDS = [
    ("figure5",
     "figure5/pilot-startup(flavor=RP,lrm=fork,machine=stampede,"
     "provision=False)", 3631325029),
    ("figure6",
     "figure6/kmeans(clusters=5000,flavor=RP,machine=stampede,"
     "ntasks=8,points=10000)", 2728879079),
    ("ablations", "ablations/integration-level()", 3683725900),
    ("sensitivity", "sensitivity/lustre-bw(bw_mb=10,flavor=RP)",
     1716248766),
    ("chaos", "chaos/bag(fault_rate=0.0,flavor=RP)", 3675950039),
    ("raptor", "raptor/throughput(machine=stampede,ntasks=10000)",
     755268484),
    ("service", "service/load(sessions_per_tenant=8,tenants=4)",
     11767156),
]


@pytest.mark.parametrize("grid,key,seed", PINNED_CELL_SEEDS,
                         ids=[g for g, _, _ in PINNED_CELL_SEEDS])
def test_cell_seed_regression(grid, key, seed):
    cells = {c.key: c for c in build_cells(grid, root_seed=42)}
    assert key in cells, sorted(cells)
    assert cells[key].seed == seed
    assert cell_seed(42, key) == seed


def test_build_cells_rejects_duplicate_keys(monkeypatch):
    from repro.experiments import sweeps

    def dup_builder(root_seed, quick=False):
        cell = sweeps.make_cell("ablations", "integration-level", root_seed)
        return [cell, cell]

    monkeypatch.setattr(grid_module("ablations"), "cells", dup_builder)
    with pytest.raises(ValueError, match="duplicate sweep cell key"):
        build_cells("ablations")


def test_cells_are_picklable_and_keyed():
    import pickle
    cell = figure5.cells()[0]
    clone = pickle.loads(pickle.dumps(cell))
    assert clone == cell and clone.key == cell.key
    assert cell.key.startswith("figure5/pilot-startup(")
    assert cell.param("machine") in ("stampede", "wrangler")


# ------------------------------------------------------------ determinism
def test_run_cell_is_hermetic():
    """The same cell run twice in one process gives identical rows."""
    cell = next(c for c in figure5.cells(42) if c.kind == "unit-startup")
    first = run_cell(cell)
    second = run_cell(cell)
    assert first["rows"] == second["rows"]
    assert first["seed"] == second["seed"] == cell.seed


def test_figure5_sweep_parallel_matches_sequential():
    """ISSUE acceptance: --jobs 4 row-for-row identical to --jobs 1."""
    sequential = run_sweep("figure5", root_seed=42, jobs=1)
    parallel = run_sweep("figure5", root_seed=42, jobs=4)
    assert [r["key"] for r in parallel.results] == \
        [r["key"] for r in sequential.results]
    for seq_row, par_row in zip(sequential.results, parallel.results, strict=True):
        assert par_row["rows"] == seq_row["rows"], seq_row["key"]
    assert parallel.aggregate_json() == sequential.aggregate_json()
    assert parallel.digest() == sequential.digest()


def test_sweep_report_separates_rows_from_timing():
    run = run_sweep("ablations", root_seed=42, jobs=1)
    report = run.report()
    assert report["digest"] == run.digest()
    assert set(report["cell_timings"]) == {r["key"] for r in run.results}
    # the digest covers only the deterministic aggregate, never timings
    assert "cell_timings" not in run.aggregate()
    assert "wall_seconds" not in run.aggregate()
    json.dumps(report)  # the artifact must be JSON-serializable


def test_sweep_rejects_bad_jobs():
    with pytest.raises(ValueError, match="jobs"):
        run_sweep("ablations", jobs=0)


def test_explicit_cell_subset_runs_only_those_cells():
    cells = [c for c in figure5.cells(42) if c.kind == "unit-startup"][:1]
    run = run_sweep("figure5", root_seed=42, jobs=1, cells=cells)
    assert len(run.results) == 1
    assert run.results[0]["key"] == cells[0].key


def test_rows_are_plain_json_values():
    cell = SweepCell(grid="sensitivity", kind="lustre-bw",
                     params=(("bw_mb", 100), ("flavor", "RP")),
                     seed=7)
    rows = run_cell(cell)["rows"]
    assert rows and isinstance(rows[0]["runtime"], float)
    json.dumps(rows)
