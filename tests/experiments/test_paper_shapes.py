"""Paper shapes: the gate fires, and the mechanisms behind Figure 6 hold.

Two halves.  The first feeds every Figure 5/6 check of
:mod:`repro.experiments.tables` a fabricated row set that violates it
and requires the printed ``FAIL`` and exit status 1 from ``main`` — the
real-data direction (exit 0 at the committed calibration) is
``tests/integration/test_cli.py``.  The second holds the mechanism and
future-work claims that need scenarios of their own: C1 (§IV-B, Lustre
contention vs local-disk scaling), A4 (§V in-memory tier), A5 (§II/§V
shuffle transports) and A6 (§V direct streaming).
"""

import pytest

from repro.__main__ import main
from repro.analytics import generate_points
from repro.analytics.kmeans import KMeansCost, run_kmeans_pilot
from repro.cluster import Machine
from repro.core.streaming import (
    StreamChannel,
    persist_handoff,
    stream_pipeline,
)
from repro.experiments import SCENARIOS, TASK_CONFIGS
from repro.experiments.ablations import (
    AmReuseRow,
    IntegrationLevelRow,
    SparkDeployRow,
)
from repro.experiments.calibration import agent_config
from repro.experiments.figure5 import StartupRow, UnitStartupRow
from repro.experiments.figure6 import KMeansRow
from repro.experiments.harness import Testbed, experiment_machine
from repro.experiments.sensitivity import SensitivityRow
from repro.experiments.tables import ablations_report, sensitivity_report
from repro.hdfs import HdfsCluster
from repro.mapreduce import MapReduceJob, MRJobSpec
from repro.sim import Environment


def verdict_of(out, marker):
    """The verdict of the one report line containing ``marker`` (column
    padding collapsed to single spaces)."""
    lines = [line for line in (" ".join(raw.split())
                               for raw in out.splitlines())
             if marker in line]
    assert len(lines) == 1, (marker, lines)
    line = lines[0]
    return "FAIL" if "FAIL" in line else \
        "not in grid" if "not in grid" in line else "OK"


# ------------------------------------------------------- Figure 5 gate
def figure5_rows(**changed):
    """A row set inside every band; ``changed`` overrides one value."""
    value = {"stampede_rp": 50.0, "stampede_mode1": 115.0,
             "wrangler_rp": 50.0, "wrangler_mode1": 105.0,
             "wrangler_mode2": 53.0,
             "stampede_cu_rp": 5.0, "stampede_cu_yarn": 40.0,
             "wrangler_cu_rp": 4.0, "wrangler_cu_yarn": 30.0, **changed}
    pilots = [
        StartupRow("stampede", "RP", value["stampede_rp"], 0.0),
        StartupRow("stampede", "RP-YARN (Mode I)",
                   value["stampede_mode1"], 60.0),
        StartupRow("wrangler", "RP", value["wrangler_rp"], 0.0),
        StartupRow("wrangler", "RP-YARN (Mode I)",
                   value["wrangler_mode1"], 45.0),
        StartupRow("wrangler", "RP-YARN (Mode II)",
                   value["wrangler_mode2"], 3.0)]
    units = [
        UnitStartupRow("stampede", "RP", value["stampede_cu_rp"]),
        UnitStartupRow("stampede", "RP-YARN", value["stampede_cu_yarn"]),
        UnitStartupRow("wrangler", "RP", value["wrangler_cu_rp"]),
        UnitStartupRow("wrangler", "RP-YARN", value["wrangler_cu_yarn"])]
    return pilots, units


def run_figure5(monkeypatch, capsys, **changed):
    pilots, units = figure5_rows(**changed)
    monkeypatch.setattr("repro.experiments.run_figure5_pilot_startup",
                        lambda: pilots)
    monkeypatch.setattr("repro.experiments.run_figure5_unit_startup",
                        lambda: units)
    status = main(["figure5"])
    return status, capsys.readouterr().out


def test_figure5_fabricated_rows_inside_every_band_pass(monkeypatch,
                                                        capsys):
    status, out = run_figure5(monkeypatch, capsys)
    assert status == 0 and "FAIL" not in out


@pytest.mark.parametrize("changed, marker", [
    # plain startup outside 45-80 (Mode I moved along: overhead stays 65)
    ({"stampede_rp": 82.0, "stampede_mode1": 147.0}, "stampede | RP | 82.0"),
    # Mode I overhead 39 s: below the 50-85 band even with its ±10 slack
    ({"wrangler_mode1": 89.0}, "wrangler | RP-YARN (Mode I)"),
    # Mode II 16 s off plain: past "comparable" (0-10 ±5)
    ({"wrangler_mode2": 66.0}, "RP-YARN (Mode II)"),
    # plain-RP CU startup above 10 s
    ({"stampede_cu_rp": 10.5}, "stampede | RP | 10.5"),
    # RP-YARN CU startup below 20 s (still > 3x RP)
    ({"stampede_cu_yarn": 19.0}, "stampede | RP-YARN | 19.0"),
    # both inside their bands, but RP-YARN only 2.9x RP
    ({"wrangler_cu_rp": 9.0, "wrangler_cu_yarn": 26.0},
     "> 3x plain RP's on wrangler"),
])
def test_each_figure5_check_fires(monkeypatch, capsys, changed, marker):
    status, out = run_figure5(monkeypatch, capsys, **changed)
    assert status == 1
    assert verdict_of(out, marker) == "FAIL"
    assert out.count("FAIL") == 1      # and no other check moved


# ------------------------------------------------------- Figure 6 gate
def figure6_rows(changed=(), drop=None, bad_centroids=None):
    """A full 36-cell grid with every §IV-B shape: plain RP pays a
    Lustre term that grows with the points and does not shrink with the
    tasks; RP-YARN pays a fixed overhead instead; Wrangler is 0.6x."""
    lustre = {10_000: 300.0, 100_000: 330.0, 1_000_000: 600.0}
    changed = dict(changed)
    rows = []
    for machine, factor in (("stampede", 1.0), ("wrangler", 0.6)):
        for points, clusters in SCENARIOS:
            for ntasks, nodes in sorted(TASK_CONFIGS.items()):
                for flavor, runtime in (
                        ("RP", 8000.0 / ntasks + lustre[points]),
                        ("RP-YARN", 9600.0 / ntasks + 150.0
                         + (50.0 if points == 1_000_000 else 0.0))):
                    key = (machine, flavor, points, ntasks)
                    if key == drop:
                        continue
                    rows.append(KMeansRow(
                        machine, flavor, points, clusters, ntasks, nodes,
                        runtime=changed.get(key, runtime * factor),
                        lrm_setup=0.0, centroids_ok=key != bad_centroids))
    return rows


def run_figure6(monkeypatch, capsys, rows):
    monkeypatch.setattr("repro.experiments.run_figure6",
                        lambda **grid: rows)
    status = main(["figure6"])
    return status, capsys.readouterr().out


def test_figure6_fabricated_full_grid_passes(monkeypatch, capsys):
    status, out = run_figure6(monkeypatch, capsys, figure6_rows())
    assert status == 0
    assert "FAIL" not in out and "not in grid" not in out
    assert "all 36 cells" in out


def test_figure6_sixteen_task_claims_never_pass_unevaluated(monkeypatch,
                                                            capsys):
    quick = [r for r in figure6_rows()
             if r.ntasks != 16 and r.points != 100_000]
    status, out = run_figure6(monkeypatch, capsys, quick)
    assert status == 0 and "FAIL" not in out
    assert verdict_of(out, "8 -> 16 -> 32") == "not in grid"
    assert verdict_of(out, "1M points / 16 tasks") == "not in grid"
    assert out.count("not in grid") == 2
    # ... and a violated 8-vs-32 shape still fails the quick grid
    quick[0].runtime = 1.0              # stampede RP 10k at 8 tasks
    status, out = run_figure6(monkeypatch, capsys, quick)
    assert status == 1
    assert verdict_of(out, "falls from 8 to 32") == "FAIL"


ST, WR, M = "stampede", "wrangler", 1_000_000


@pytest.mark.parametrize("kwargs, marker", [
    ({"drop": (WR, "RP", 100_000, 16)}, "cells of the grid ran"),
    ({"bad_centroids": (ST, "RP-YARN", M, 32)}, "centroids match"),
    ({"changed": {(ST, "RP", 10_000, 32): 1400.0}}, "falls from 8 to 32"),
    ({"changed": {(ST, "RP", 10_000, 16): 1350.0}}, "8 -> 16 -> 32"),
    ({"changed": {(WR, "RP", 10_000, 8): 1301.0}}, "Wrangler beats"),
    ({"changed": {(ST, "RP-YARN", 100_000, 32): 581.0}},
     "at 32 tasks on Stampede"),
    ({"changed": {(WR, "RP-YARN", M, 16): 661.0}}, "1M points / 16 tasks"),
    ({"changed": {(ST, "RP-YARN", M, 8): 900.0}}, "speedup beats RP's"),
    ({"changed": {(machine, "RP-YARN", points, ntasks): 50_000.0 / ntasks
                  for machine in (ST, WR) for points, _ in SCENARIOS
                  for ntasks in (16, 32)}}, "mean RP-YARN advantage"),
    ({"changed": {(ST, "RP-YARN", 10_000, 8): 1299.0}},
     "YARN overhead visible"),
    ({"changed": {(ST, "RP", M, 8): 1900.0}}, "declines by > 0.2"),
])
def test_each_figure6_check_fires(monkeypatch, capsys, kwargs, marker):
    status, out = run_figure6(monkeypatch, capsys, figure6_rows(**kwargs))
    assert status == 1
    assert verdict_of(out, marker) == "FAIL"


# ------------------------------------------- ablation / sensitivity gate
def ablation_rows(pm_level=48.0, on_yarn=74.0, frameworks=2, reused=19.0,
                  kmeans_reuse=560.0):
    cell = dict(machine="stampede", flavor="RP-YARN", points=M, clusters=50,
                ntasks=32, nodes=3, lrm_setup=60.0, centroids_ok=True)
    return ([IntegrationLevelRow("agent-level", 40.0, 0),
             IntegrationLevelRow("pilot-manager-level", pm_level, 44)],
            [SparkDeployRow("standalone", 11.0, 1),
             SparkDeployRow("spark-on-yarn", on_yarn, frameworks)],
            [AmReuseRow("per-unit AM", 39.0), AmReuseRow("re-used AM", reused)],
            [(KMeansRow(runtime=614.0, **cell),
              KMeansRow(runtime=kmeans_reuse, **cell))])


@pytest.mark.parametrize("changed, marker", [
    ({"pm_level": 41.5}, "A1:"),
    ({"on_yarn": 10.0}, "A2:"),
    ({"frameworks": 1}, "A2:"),
    ({"reused": 35.0}, "A3:"),
    ({"kmeans_reuse": 620.0}, "A3 on K-Means:"),
])
def test_each_ablation_check_fires(changed, marker):
    text, holds = ablations_report(*ablation_rows())
    assert holds and "FAIL" not in text
    text, holds = ablations_report(*ablation_rows(**changed))
    assert not holds
    assert verdict_of(text, marker) == "FAIL"


@pytest.mark.parametrize("yarn_runtimes, marker", [
    ([600.0, 600.0, 600.0, 300.0], "advantage falls"),    # rises again
    ([1900.0, 600.0, 600.0, 600.0], "wins by > 10 %"),
    ([600.0, 600.0, 450.0, 390.0], "past a crossover"),   # YARN never loses
])
def test_each_sensitivity_check_fires(yarn_runtimes, marker):
    def report(yarn):
        return sensitivity_report([
            SensitivityRow(bw * 1e6, rp, y) for bw, rp, y in zip(
                (10, 30, 100, 300), (2000.0, 1000.0, 500.0, 400.0), yarn,
                strict=True)])

    text, holds = report([600.0] * 4)
    assert holds and "FAIL" not in text and "~100 MB/s" in text
    text, holds = report(yarn_runtimes)
    assert not holds
    assert verdict_of(text, marker) == "FAIL"


# ------------------------------------------------ C1: storage mechanism
def storage_sweep(machine_name, per_stream_bytes=200e6):
    """Makespan of N concurrent write+read streams against the
    job-visible Lustre share vs the allocation's local disks, for the
    paper's 8/16/32-task configurations."""
    results = {}
    for ntasks, nodes in sorted(TASK_CONFIGS.items()):
        for target in ("lustre", "local"):
            env = Environment()
            machine = Machine(env, experiment_machine(machine_name, nodes))

            def stream(i, target=target, machine=machine, nodes=nodes):
                volume = (machine.shared_fs if target == "lustre"
                          else machine.nodes[i % nodes].local_disk)
                yield volume.write(per_stream_bytes)
                volume.delete(per_stream_bytes)
                yield volume.read(per_stream_bytes)

            env.run(env.all_of([env.process(stream(i))
                                for i in range(ntasks)]))
            results[(ntasks, target)] = env.now
    return results


def test_c1_lustre_contention_vs_local_disk_scaling():
    """§IV-B: "for RADICAL-Pilot-YARN the local file system is used,
    while for RADICAL-Pilot the Lustre filesystem is used"."""
    stampede = storage_sweep("stampede")
    # Lustre: fixed aggregate -> makespan grows ~linearly with streams
    assert stampede[(32, "lustre")] > 2.5 * stampede[(8, "lustre")]
    # local disks: capacity grows with nodes -> makespan roughly flat
    assert stampede[(32, "local")] < 1.5 * stampede[(8, "local")]
    # at scale, local wins (the Figure 6 mechanism)
    assert stampede[(32, "local")] < stampede[(32, "lustre")]


def test_c1_wrangler_io_is_not_saturated():
    """Paper: "we were not able to saturate the I/O system" on
    Wrangler — 32 streams degrade its Lustre share no more than
    Stampede's, from a faster base."""
    stampede, wrangler = storage_sweep("stampede"), storage_sweep("wrangler")
    assert (wrangler[(32, "lustre")] / wrangler[(8, "lustre")]
            <= stampede[(32, "lustre")] / stampede[(8, "lustre")])
    assert wrangler[(32, "lustre")] < stampede[(32, "lustre")]


# ----------------------------------------------- A4: in-memory tier (§V)
def iterative_kmeans_span(cache_in_memory):
    testbed = Testbed("stampede", num_nodes=2)
    testbed.start_pilot(nodes=2, agent_config=agent_config("yarn"))
    points = generate_points(5000, 8, seed=4)
    cost = KMeansCost(bytes_per_point_in=400_000.0)  # I/O-heavy chunks

    def workload():
        yield from run_kmeans_pilot(
            testbed.umgr, points, 8, ntasks=8, iterations=4, cost=cost,
            cache_in_memory=cache_in_memory)

    t0 = testbed.env.now
    testbed.run(workload())
    return testbed.env.now - t0


def test_a4_in_memory_tier_shortens_iterative_kmeans():
    """Point chunks cached in the node-RAM tier after iteration 1 beat
    re-reading them from storage every iteration."""
    assert iterative_kmeans_span(True) < iterative_kmeans_span(False)


# --------------------------------------------- A5: shuffle transport (§II)
def shuffle_job_span(transport, num_chunks):
    env = Environment()
    machine = Machine(env, experiment_machine("stampede", 3))
    hdfs = HdfsCluster(env, machine, machine.nodes, replication=2)
    env.run(env.process(hdfs.start()))
    words = [f"w{i % 50}" for i in range(num_chunks * 40)]
    per = len(words) // num_chunks
    slices = [words[i * per:(i + 1) * per] for i in range(num_chunks)]
    client = hdfs.client(hdfs.master_node.name)
    env.run(env.process(client.put(
        "/in", 1.0 * len(words), payload_slices=slices,
        block_size=max(1.0, len(words) / num_chunks))))
    spec = MRJobSpec(
        name=f"shuffle-{transport}", input_path="/in", output_path="/out",
        mapper=lambda w: [(w, 1)],
        reducer=lambda w, c: [(w, sum(c))],
        num_reducers=4, bytes_per_pair=2e6,     # shuffle-dominated
        shuffle_transport=transport)
    job = MapReduceJob(env, spec, hdfs)
    t0 = env.now
    env.run(env.process(job.run_inline()))
    return env.now - t0


def test_a5_shuffle_transport_tradeoffs():
    spans = {(maps, transport): shuffle_job_span(transport, maps)
             for maps in (4, 24)
             for transport in ("local", "lustre", "rdma")}
    # RDMA (no disk on either side) wins at any scale
    for maps in (4, 24):
        assert spans[(maps, "rdma")] <= spans[(maps, "local")]
        assert spans[(maps, "rdma")] <= spans[(maps, "lustre")]
    # Lustre's fixed share degrades with parallelism relative to the
    # node-local transport (the medium-workload caveat of §II)
    assert (spans[(24, "lustre")] / spans[(4, "lustre")]
            > spans[(24, "local")] / spans[(4, "local")])


# --------------------------------------------- A6: direct streaming (§V)
def test_a6_streaming_beats_persist_and_reread_handoff():
    """§V: "data needs to be moved, which involves persisting files and
    re-reading them into Spark ... In the future it can be expected
    that data can be directly streamed between these two environments."
    Handing 2 GB over the stream channel takes under half the time."""
    work = [(list(range(100)), 200e6) for _ in range(10)]

    env = Environment()
    machine = Machine(env, experiment_machine("stampede", 2))
    env.run(env.process(persist_handoff(env, machine.shared_fs, work,
                                        consume_chunk=len)))
    persist = env.now

    env = Environment()
    machine = Machine(env, experiment_machine("stampede", 2))
    channel = StreamChannel(env, network=machine.network,
                            src=machine.nodes[0].name,
                            dst=machine.nodes[1].name)
    env.run(env.process(stream_pipeline(env, channel, work,
                                        consume_chunk=len)))
    assert env.now < persist / 2
