"""Pinned ``--quick`` sweep digests, one per grid (jobs=1, root seed 42).

Every grid's canonical aggregate is byte-deterministic, so its sha256
is the cheapest oracle for "same behaviour": a refactor of the sweep
runner, a cell body or the simulation stack must leave all seven
values unchanged.  The CI sanitized shard runs this module with
``REPRO_SANITIZE=1``, which pins sanitize on == off for every grid.

``figure6`` and ``sensitivity`` are the slow grids (most of their time
is K-Means analytics), so they are pinned on a two-cell RP + RP-YARN
subset through ``run_sweep(cells=...)``; the cells keep their full-grid
keys and seeds, so the subset digests are as exact as the full ones.
Update a value only on a deliberate, documented change of the rows.
"""

import pytest

from repro.experiments.sweeps import build_cells, run_sweep

QUICK_DIGESTS = {
    "figure5":
        "b56fa12390f215a8b1ce1b9558777d49ad6f0a828b89f105071e4a7a4d4b12a7",
    "ablations":
        "dc7de92ca611cc63b514a99f600a0cc7941f2a31dc56c4d9bf6c18e28ba27bb6",
    "chaos":
        "0d2096462b4b007225fca83bbcc0aae7ab7c17471156260acb3ddda1c09c62c1",
    "raptor":
        "1489ef7c5733724a377e1624434e0525845b4133cedcbef96fd29116e7144811",
    "service":
        "5859a9ac9d4d8dad9f89ddb9ee9ffd8f0f25300a16c10f040dd60199ce53eba2",
}

#: grid -> (cell filter, digest of the two selected cells).
SUBSET_DIGESTS = {
    "figure6": (
        {"machine": "stampede", "points": 10_000, "ntasks": 8},
        "2cc035e9258005e6f0727f8719cf074f63e5673f678359b46ae8594db57b6e65"),
    "sensitivity": (
        {"bw_mb": 10},
        "c468f6135bd30a3d4556b03a8693f946334cb243aa3a87c19ecf604095879901"),
}


def pinned_cells(grid):
    """The cells behind ``grid``'s pinned digest, in declaration order:
    the whole quick grid, or the slow grid's two-cell subset."""
    cells = build_cells(grid, root_seed=42, quick=True)
    if grid in SUBSET_DIGESTS:
        where = SUBSET_DIGESTS[grid][0]
        cells = [cell for cell in cells
                 if all(cell.param(k) == v for k, v in where.items())]
    return cells


@pytest.mark.parametrize("grid", sorted(QUICK_DIGESTS))
def test_quick_grid_digest_pinned(grid):
    run = run_sweep(grid, root_seed=42, jobs=1, quick=True)
    assert run.complete
    assert run.digest() == QUICK_DIGESTS[grid]


@pytest.mark.parametrize("grid", sorted(SUBSET_DIGESTS))
def test_slow_grid_subset_digest_pinned(grid):
    cells = pinned_cells(grid)
    assert sorted(cell.param("flavor") for cell in cells) == \
        ["RP", "RP-YARN"]
    run = run_sweep(grid, root_seed=42, jobs=1, cells=cells)
    assert run.digest() == SUBSET_DIGESTS[grid][1]
