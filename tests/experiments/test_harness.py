"""Tests for the experiment harness, calibration and table rendering.

PYTEST_DONT_REWRITE — assertion rewriting of this module trips a
CPython 3.11 ``ast`` recursion-guard bug; plain asserts work fine.
"""

import pytest

from repro.experiments.calibration import (
    CALIBRATED_KMEANS_COST,
    CALIBRATED_YARN,
    SCENARIOS,
    TASK_CONFIGS,
    agent_config,
    scenario_label,
)
from repro.experiments.figure6 import (
    KMeansRow,
    run_figure6_cell,
    speedup,
    yarn_advantage,
)
from repro.experiments.harness import Testbed, experiment_machine
from repro.experiments.tables import format_table, within


# --------------------------------------------------------------- harness
def test_experiment_machine_applies_lustre_share():
    spec = experiment_machine("stampede", 2)
    assert spec.shared_fs.aggregate_bw == 30e6
    assert spec.num_nodes == 2
    wr = experiment_machine("wrangler", 1)
    assert wr.shared_fs.aggregate_bw > spec.shared_fs.aggregate_bw


def test_testbed_pilot_roundtrip():
    testbed = Testbed("stampede", num_nodes=1)
    pilot, t_submit, t_active = testbed.start_pilot(
        nodes=1, agent_config=agent_config("fork"))
    assert t_active > t_submit
    assert pilot.agent_info["cores"] == 16


def test_scenarios_match_paper():
    assert SCENARIOS == [(10_000, 5_000), (100_000, 500), (1_000_000, 50)]
    # compute = points x clusters is constant across scenarios (SSIV-B)
    products = {p * c for p, c in SCENARIOS}
    assert products == {50_000_000}
    assert TASK_CONFIGS == {8: 1, 16: 2, 32: 3}


def test_scenario_label():
    assert scenario_label(10_000, 5_000) == "10,000 points / 5,000 clusters"


def test_calibrated_cost_structure():
    cpu, inp, out, mem = CALIBRATED_KMEANS_COST.map_unit(1000, 50, 3)
    assert cpu > 0 and inp > 0 and out > 0 and mem > 0
    # compute scales with the point-cluster product
    cpu2, _, _, _ = CALIBRATED_KMEANS_COST.map_unit(2000, 50, 3)
    assert cpu2 == pytest.approx(2 * cpu)


def test_yarn_config_scaling():
    scaled = CALIBRATED_YARN.scaled(2.0)
    assert scaled.container_launch_seconds == pytest.approx(
        CALIBRATED_YARN.container_launch_seconds / 2)
    # protocol cadence is not CPU-bound
    assert scaled.nm_heartbeat == CALIBRATED_YARN.nm_heartbeat


# ---------------------------------------------------------------- figure6
def test_single_cell_runs_and_validates():
    row = run_figure6_cell("stampede", "RP", 10_000, 50, 8)
    assert row.centroids_ok
    assert row.runtime > 0
    assert row.nodes == 1


def _row(machine, flavor, points, ntasks, runtime):
    return KMeansRow(machine=machine, flavor=flavor, points=points,
                     clusters=50, ntasks=ntasks,
                     nodes=TASK_CONFIGS[ntasks], runtime=runtime,
                     lrm_setup=0.0, centroids_ok=True)


def test_speedup_computation():
    rows = [_row("stampede", "RP", 1000, 8, 800.0),
            _row("stampede", "RP", 1000, 32, 200.0)]
    assert speedup(rows, "stampede", "RP", 1000) == pytest.approx(4.0)


def test_yarn_advantage_computation():
    rows = [
        _row("stampede", "RP", 1000, 16, 100.0),
        _row("stampede", "RP-YARN", 1000, 16, 80.0),   # +20%
        _row("stampede", "RP", 1000, 32, 100.0),
        _row("stampede", "RP-YARN", 1000, 32, 90.0),   # +10%
        _row("stampede", "RP", 1000, 8, 100.0),        # excluded (<16)
        _row("stampede", "RP-YARN", 1000, 8, 500.0),
    ]
    assert yarn_advantage(rows) == pytest.approx(0.15)


def test_yarn_advantage_empty():
    assert yarn_advantage([]) == 0.0


# ----------------------------------------------------------------- tables
def test_format_table_alignment():
    table = format_table(["name", "value"],
                         [("alpha", 1.0), ("beta-long", 22.5)])
    lines = table.splitlines()
    assert len(lines) == 4
    assert "alpha" in lines[2]
    assert "22.5" in lines[3]


def test_within_band():
    assert within(62.0, "mode1_overhead") == (True, "paper 50-85 ±10: OK")
    # the band's tolerance is part of the verdict, on both sides
    assert within(40.0, "mode1_overhead")[0]
    assert within(39.9, "mode1_overhead") == (False,
                                              "paper 50-85 ±10: FAIL")
    assert not within(95.1, "mode1_overhead")[0]
    # no tolerance registered: the bare paper band
    assert within(80.0, "pilot_startup_plain") == (True, "paper 45-80: OK")
    assert not within(80.1, "pilot_startup_plain")[0]
