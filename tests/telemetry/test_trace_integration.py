"""End-to-end: a Mode I K-Means run emits the expected telemetry."""

import json
from types import SimpleNamespace

import pytest

from repro.__main__ import main
from repro.core import profiler
from repro.core.states import UnitState
from repro.telemetry.runner import run_traced_kmeans

POINTS = 1600
NTASKS = 8
ITERATIONS = 2


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace")
    run = run_traced_kmeans(machine="stampede", flavor="RP-YARN",
                            points=POINTS, clusters=4, ntasks=NTASKS,
                            iterations=ITERATIONS, out_dir=str(out))
    return run, out


def test_run_validates_and_writes_artifacts(traced):
    run, out = traced
    assert run.centroids_ok
    assert run.nodes == 1 and run.lrm_setup > 0       # Mode I setup paid
    for name in ("trace", "spans", "events", "metrics"):
        assert (out / {"trace": "trace.json"}.get(name, f"{name}.jsonl")
                ).exists()


def test_span_hierarchy_pilot_unit_container(traced):
    run, out = traced
    spans = [json.loads(line)
             for line in (out / "spans.jsonl").read_text().splitlines()
             if line.strip()]
    by_id = {s["sid"]: s for s in spans}
    by_cat = {}
    for s in spans:
        by_cat.setdefault(s["cat"], []).append(s)

    # One pilot; 2 map waves + reduce per iteration = ntasks+1 units/iter.
    assert len(by_cat["pilot"]) == 1
    n_units = (NTASKS + 1) * ITERATIONS
    assert len(by_cat["unit"]) == n_units
    assert len(by_cat["container"]) == n_units

    pilot = by_cat["pilot"][0]
    for unit in by_cat["unit"]:
        assert unit["parent"] == pilot["sid"]
        assert unit["end"] is not None
        assert unit["args"]["final_state"] == "Done"
    for container in by_cat["container"]:
        parent = by_id[container["parent"]]
        assert parent["cat"] == "unit"
        # Containers live on their unit's track and within its interval.
        assert container["track"] == parent["track"]
        assert parent["start"] <= container["start"]
        assert container["end"] <= parent["end"]
    # The agent bootstrap span nests under the pilot too.
    boots = by_cat["agent"]
    assert boots and all(b["parent"] == pilot["sid"] for b in boots)
    # Every unit went through the four pipeline phases.
    phase_names = {p["name"] for p in by_cat["unit.phase"]}
    assert phase_names == {"stage_in", "schedule", "execute", "stage_out"}
    assert len(by_cat["unit.phase"]) == 4 * n_units


def test_chrome_trace_artifact_is_valid(traced):
    run, out = traced
    doc = json.loads((out / "trace.json").read_text())
    events = doc["traceEvents"]
    assert {e["ph"] for e in events} <= {"X", "M", "i"}
    xs = [e for e in events if e["ph"] == "X"]
    assert all(e["ts"] >= 0 and e["dur"] >= 0 and e["pid"] == 1
               for e in xs)
    cats = {e["cat"] for e in xs}
    assert {"pilot", "unit", "container"} <= cats


def test_metrics_artifact_has_required_series(traced):
    run, out = traced
    rows = [json.loads(line)
            for line in (out / "metrics.jsonl").read_text().splitlines()
            if line.strip()]
    names = {r["metric"] for r in rows}
    assert "agent.scheduler.queue_depth" in names
    assert "agent.allocation_latency" in names
    assert "yarn.container.allocation_latency" in names
    assert "agent.executor.occupancy" in names
    occupancy = [r for r in rows
                 if r["metric"] == "agent.executor.occupancy"]
    assert any(r["value"] > 0 for r in occupancy)
    latency = [r for r in rows
               if r["metric"] == "yarn.container.allocation_latency"]
    assert sum(r["count"] for r in latency) >= (NTASKS + 1) * ITERATIONS


def test_profiler_bridge_feeds_phase_means(traced):
    # The report's phase means come from the unit handles; the unit
    # state events in events.jsonl must tell the same story.
    run, out = traced
    histories = {}
    for line in (out / "events.jsonl").read_text().splitlines():
        event = json.loads(line)
        if (event["cat"], event["name"]) == ("unit", "state"):
            histories.setdefault(event["uid"], []).append(
                (event["t"], UnitState(event["state"])))
    views = [SimpleNamespace(history=h, timestamp=lambda s, h=h: next(
        (t for t, state in h if state is s), None))
        for h in histories.values()]
    assert len(views) == (NTASKS + 1) * ITERATIONS
    assert run.phase_means == profiler.phase_means(views)
    assert all(v is not None for v in run.phase_means.values())
    assert run.peak_concurrency == profiler.peak_concurrency(views) >= 1


def test_trace_cli_smoke(tmp_path, capsys):
    out = tmp_path / "cli"
    code = main(["trace", "--points", "800", "--clusters", "4",
                 "--ntasks", "8", "--flavor", "RP",
                 "--output", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "centroids valid    True" in text
    assert (out / "trace.json").exists()
    doc = json.loads((out / "trace.json").read_text())
    assert any(e.get("cat") == "unit" for e in doc["traceEvents"])
