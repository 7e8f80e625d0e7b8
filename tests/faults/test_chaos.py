"""Chaos sweep: grid shape, determinism, and scenario invariants."""

from repro.api import UnitManager
from repro.experiments.chaos import run_chaos_bag, run_nm_loss
from repro.experiments.sweeps import (
    build_cells,
    chaos_cells,
    run_cell,
    run_sweep,
)


def _cell(kind, **params):
    matches = [c for c in chaos_cells(42)
               if c.kind == kind
               and all(dict(c.params).get(k) == v
                       for k, v in params.items())]
    assert matches, (kind, params)
    return matches[0]


def test_chaos_grid_shape():
    assert len(chaos_cells(42)) == 5
    assert len(chaos_cells(42, quick=True)) == 4
    assert build_cells("chaos", 42) == chaos_cells(42)
    kinds = {c.kind for c in chaos_cells(42)}
    assert kinds == {"bag", "nm-loss", "hdfs-heal"}


def test_hdfs_heal_cell_restores_replication_and_is_hermetic():
    cell = _cell("hdfs-heal")
    first, second = run_cell(cell), run_cell(cell)
    assert first["rows"] == second["rows"]
    row = first["rows"][0]
    assert row["rf_before"] == 2
    assert row["rf_after_loss"] == 1
    assert row["rf_restored"] == 2     # replication factor restored
    assert row["mttr"] > 0


def test_chaos_bag_restarts_recover_every_poisoned_unit():
    clean = run_chaos_bag(fault_rate=0.0, ntasks=8, seed=7)
    chaotic = run_chaos_bag(fault_rate=0.5, ntasks=8, seed=7)
    assert clean.poisoned == 0 and clean.restarts == 0
    assert clean.done == chaotic.done == 8
    assert chaotic.poisoned == 4
    assert chaotic.restarts == 4       # one restart per poisoned unit
    assert chaotic.recovered == 4      # each finished under a new uid
    assert chaotic.makespan > clean.makespan


def test_nm_loss_client_restarts_finish_every_unit(monkeypatch):
    """Each task container shares its AM's node, so the lost NM takes
    AM and task down together: no AM is left to re-attempt, and the
    Unit-Manager's RestartPolicy brings every unit home."""
    managers = []
    init = UnitManager.__init__

    def recording_init(self, *args, **kwargs):
        managers.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(UnitManager, "__init__", recording_init)
    row = run_nm_loss(ntasks=6, seed=7)
    assert row.done == row.units == 6
    assert row.nodes_lost == 1
    assert row.reattempts == 0
    (umgr,) = [m for m in managers if m.restart_policy is not None]
    assert sum(umgr._restarts_used.values()) >= 1


def test_chaos_sweep_parallel_matches_sequential():
    cells = [_cell("bag", fault_rate=0.25), _cell("hdfs-heal")]
    sequential = run_sweep("chaos", root_seed=42, jobs=1, cells=cells)
    parallel = run_sweep("chaos", root_seed=42, jobs=2, cells=cells)
    assert parallel.aggregate_json() == sequential.aggregate_json()
    assert parallel.digest() == sequential.digest()


def test_chaos_cell_identical_with_sanitizer_armed(monkeypatch):
    cell = _cell("bag", fault_rate=0.25)
    plain = run_cell(cell)["rows"]
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitized = run_cell(cell)["rows"]
    assert sanitized == plain
