"""Smoke test of the benchmark suite itself (outside tier-1's testpaths).

    pytest benchmarks/suite -q

Runs every workload in-process at ``--scale 0.02``: checks the contract
in ``BENCHMARK.json`` against what is emitted, that outputs verify,
that the simulation repeats exactly, that a wrong reference is caught,
and that the layer path table covers the whole program.
"""

import re
import time
from collections import Counter

import pytest

from benchmarks.suite import SRC, contract
from benchmarks.suite.cli import result_line
from benchmarks.suite.measure import assemble, child_main, run_repeat
from benchmarks.suite.trace import LAYER_PATHS, LAYERS, layer_of
from benchmarks.suite.workloads import WORKLOADS

SCALE = 0.02
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


@pytest.fixture(scope="module")
def spec():
    return contract.load()


def test_contract_names_the_suite(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == ["benchmarks/suite"]
    names = [m["name"] for m in spec["per_layer"]]
    for layer in LAYERS:
        assert {f"{layer}.self_s", f"{layer}.calls"} <= set(names)
    every = names + [m["name"] for m in spec["end_to_end"]] + list(WORKLOADS)
    assert len(set(every)) == len(every)
    assert all(NAME.fullmatch(name) for name in every)
    assert len(contract.end_to_end(spec)) == 7
    assert len(contract.per_layer(spec)) == 84


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_every_metric(name, spec):
    report = child_main(name, seed=42, scale=SCALE,
                        t_spawn=time.monotonic(), seconds=None, repeats=2,
                        traced=True, setup_only=False)
    first, second = (r["outcome"] for r in report["repeats"])
    assert first["makespan"] == second["makespan"] > 0
    assert first["digest"] == second["digest"] \
        == report["traced"]["outcome"]["digest"]

    traced = assemble(name, 42, SCALE, report, [report["setup_s"]])
    del report["traced"]
    report.pop("telemetry_on", None)
    untraced = assemble(name, 42, SCALE, report, [report["setup_s"]])
    for result, kind in ((untraced, "end_to_end"), (traced, "per_layer")):
        line = result_line(result, spec)
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in spec[kind]]
        for metric in line["metrics"].values():
            assert isinstance(metric["value"], (int, float))
            assert metric["unit"]
    assert untraced["end_to_end"]["failed_frac"] == 0
    assert traced["per_layer"]["persist.resume_cells_executed"] == 0
    assert all(untraced["end_to_end"][m["name"]] > 0
               for m in spec["end_to_end"])

    layers = traced["per_layer"]
    # The layers' self times account for the whole traced wall.
    total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    assert total == pytest.approx(untraced["end_to_end"]["wall_s"] * (
        1 + layers["trace.overhead_frac"]), rel=0.02)


def test_wrong_wordcount_reference_fails():
    workload = WORKLOADS["shuffle-dataplane"]
    inputs = workload.prepare(42, SCALE)
    assert run_repeat(workload, inputs)["outcome"]["failed"] == 0
    inputs["wordcount"] = Counter({"word-0000": 1})
    assert run_repeat(workload, inputs)["outcome"]["failed"] > 0


def test_layer_table_covers_every_package():
    package = SRC / "repro"
    listed = {prefix.split("/")[0] for prefix, _ in LAYER_PATHS}
    present = {p.name for p in package.iterdir()
               if p.is_dir() and (p / "__init__.py").exists()}
    # A new package must be placed in LAYER_PATHS deliberately.
    assert present <= listed, sorted(present - listed)
    assert layer_of(str(package / "core" / "db.py")) == "core.db"
    assert layer_of(str(package / "core" / "agent" / "lrm.py")) == "core.other"
    assert layer_of(str(package / "sim" / "engine.py")) == "sim.engine"
    assert layer_of(str(package / "api.py")) == "other"
    assert layer_of(__file__) == "other"
