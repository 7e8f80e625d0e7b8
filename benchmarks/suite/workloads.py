"""The seven workloads.

Each workload is a closed loop with one client: submit a batch, drive
``env.run()`` to quiescence.  A repeat is split so that only the work a
user waits for is timed:

* ``prepare(seed, scale)`` — generate inputs (and independent reference
  answers) from the seed; done once per child, part of ``setup_s``;
* ``build(inputs)`` — a fresh simulated world per repeat (untimed; the
  harness adds ``world["inputs"]``);
* ``drive(world)`` — the timed region;
* ``check(world)`` — compare outputs with the references and read
  per-layer counters from public state (untimed).

``--seed`` and ``--scale`` are the only workload arguments: the seed
feeds ``Testbed(seed=...)``, the wordcount/Spark input generators and
the ``LoadSpec``; the program only ever sees the generated inputs.
Numbers at ``scale != 1`` are for smoke runs and are never compared.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass
class Outcome:
    """What one repeat produced, apart from its wall time."""

    #: The workload's stated item count (denominator of ``items_per_s``).
    items: int
    #: Operations whose output was checked / how many were wrong.
    attempted: int
    failed: int
    #: Simulated first-submit -> last-completion, seconds.
    makespan: float
    #: sha256 over the simulated facts (no process-global uids): equal
    #: across repeats, or the repeat counts as failed.
    digest: str
    #: Workload-specific per-layer metrics read from public state.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Largest relative distance outside a ``PAPER_TARGETS`` band.
    paper_dev: float = 0.0


def sim_digest(*facts: Any) -> str:
    blob = json.dumps(facts, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(count * scale)))


class Workload:
    name = ""
    why = ""

    def prepare(self, seed: int, scale: float) -> Dict[str, Any]:
        raise NotImplementedError

    def build(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """Nothing to build where the program's entry point (run_load,
        run_sweep) makes its own world."""
        return {}

    def drive(self, world: Dict[str, Any]) -> None:
        raise NotImplementedError

    def check(self, world: Dict[str, Any]) -> Outcome:
        raise NotImplementedError


def _pilot_world(seed: int, lrm: str) -> Dict[str, Any]:
    """A 72-node Frontera site with a warm 64-node pilot."""
    from repro.experiments.calibration import agent_config
    from repro.experiments.harness import Testbed

    testbed = Testbed("frontera", num_nodes=72, seed=seed)
    pilot, t_submit, t_active = testbed.start_pilot(
        nodes=64, agent_config=agent_config(lrm))
    return {"testbed": testbed, "pilot": pilot,
            "pilot_startup": t_active - t_submit}


# ------------------------------------------------------------ units-*
class Units(Workload):
    """N one-core Compute-Units through ``UnitManager.submit_units``."""

    def __init__(self, name: str, why: str, lrm: str, units: int,
                 cpu_seconds: float, memory_mb: int):
        self.name, self.why, self.lrm = name, why, lrm
        self.units, self.cpu_seconds = units, cpu_seconds
        self.memory_mb = memory_mb

    def prepare(self, seed, scale):
        return {"seed": seed, "units": scaled(self.units, scale, 8)}

    def build(self, inputs):
        return _pilot_world(inputs["seed"], self.lrm)

    def drive(self, world):
        from repro.api import ComputeUnitDescription

        testbed = world["testbed"]
        env = testbed.env
        description = ComputeUnitDescription(
            executable="/bin/true", cores=1,
            cpu_seconds=self.cpu_seconds, memory_mb=self.memory_mb)
        t0, steps0 = env.now, env.steps
        units = testbed.umgr.submit_units(
            [description] * world["inputs"]["units"])
        env.run(testbed.umgr.wait_units(units))
        world.update(units=units, makespan=env.now - t0,
                     events=env.steps - steps0)

    def check(self, world):
        from repro.api import UnitState
        from repro.core.profiler import phase_means

        testbed, units = world["testbed"], world["units"]
        done = [u for u in units if u.state is UnitState.DONE]
        phases = {k: v or 0.0 for k, v in phase_means(units).items()}
        db = testbed.session.db
        counters = {
            "sim.engine.events": world["events"],
            "core.db.docs": len(db.collection("units"))
            + len(db.collection("pilots")),
            "core.unit_manager.sim_queue_s": phases["queue"],
            "core.agent.scheduler.sim_wait_s": phases["schedule"],
            "core.agent.executor.sim_stage_in_s": phases["stage_in"],
            "core.agent.executor.sim_exec_s": phases["execute"],
            "launch.sim_pilot_startup_s": world["pilot_startup"],
        }
        # Only the YARN LRMs own a YarnCluster.
        lrm = testbed.pmgr.agents[world["pilot"].uid].lrm
        cluster = getattr(lrm, "yarn", None)
        if cluster is not None:
            rm = cluster.resource_manager.cluster_metrics()
            startups = [u.startup_time for u in done]
            counters.update({
                "yarn.containers_allocated": rm["containersAllocated"],
                "yarn.apps_completed": rm["appsCompleted"],
                "yarn.apps_failed": rm["appsFailed"],
                "yarn.sim_unit_startup_s":
                    sum(startups) / max(1, len(startups)),
            })
        finished = sorted(u.timestamp(UnitState.DONE) for u in done)
        return Outcome(
            items=len(units), attempted=len(units),
            failed=len(units) - len(done), makespan=world["makespan"],
            digest=sim_digest(world["makespan"], world["events"], finished),
            counters=counters)


# ------------------------------------------------------ raptor-stream
class RaptorStream(Workload):
    name = "raptor-stream"
    why = ("50,000 small tasks through one raptor overlay: the "
           "many-small-tasks regime (engine + raptor + interconnect "
           "pipes), bypassing core.db per item and all of YARN")
    tasks = 50_000

    def prepare(self, seed, scale):
        return {"seed": seed, "tasks": scaled(self.tasks, scale, 64)}

    def build(self, inputs):
        from repro.api import RaptorConfig

        world = _pilot_world(inputs["seed"], "fork")
        testbed = world["testbed"]
        overlay = testbed.session.raptor(
            world["pilot"], workers=127,
            config=RaptorConfig(retain_results=False))
        testbed.env.run(overlay.ready())
        world["overlay"] = overlay
        return world

    def drive(self, world):
        from repro.api import TaskDescription

        env, overlay = world["testbed"].env, world["overlay"]
        task = TaskDescription(cpu_seconds=0.05)
        t0, steps0 = env.now, env.steps
        overlay.submit_tasks([task] * world["inputs"]["tasks"],
                             futures=False)
        env.run(overlay.wait())
        world.update(makespan=env.now - t0, events=env.steps - steps0)

    def check(self, world):
        stats = dict(world["overlay"].stats())
        stats.pop("overlay")  # a process-global uid
        count, makespan = world["inputs"]["tasks"], world["makespan"]
        return Outcome(
            items=count, attempted=count,
            failed=count - stats["tasks_completed"], makespan=makespan,
            digest=sim_digest(makespan, world["events"], stats),
            counters={
                "sim.engine.events": world["events"],
                "launch.sim_pilot_startup_s": world["pilot_startup"],
                "raptor.tasks_completed": stats["tasks_completed"],
                "raptor.tasks_failed": stats["tasks_failed"],
                "raptor.tasks_retried": stats["tasks_retried"],
                "raptor.workers_lost": stats["workers_lost"],
                "raptor.sim_tasks_per_s": count / makespan,
            })


# -------------------------------------------------- shuffle-dataplane
class ShuffleDataplane(Workload):
    name = "shuffle-dataplane"
    why = ("inline MR wordcount over HDFS, Spark reduce_by_key and a "
           "1000-stream bandwidth pipe: the Hadoop data plane "
           "(mapreduce, spark, hdfs, cluster.storage); no pilot, no "
           "core, no YARN")
    WORDS_PER_LINE = 20
    TRANSFERS_PER_STREAM = 100

    def prepare(self, seed, scale):
        rng = random.Random(seed)
        vocabulary = [f"word-{i:04d}" for i in range(199)]
        lines = [tuple(rng.choices(vocabulary, k=self.WORDS_PER_LINE))
                 for _ in range(scaled(60_000, scale, 40))]
        keys = rng.choices(range(499), k=scaled(1_000_000, scale, 100))
        return {
            "seed": seed,
            "lines": lines,
            "blocks": scaled(384, scale, 4),
            "reducers": scaled(128, scale, 2),
            "pairs": [(key, 1) for key in keys],
            "partitions": scaled(256, scale, 4),
            "streams": scaled(1000, scale, 2),
            # Independent references, never derived from the program.
            "wordcount": Counter(w for line in lines for w in line),
        }

    def build(self, inputs):
        from repro.cluster import Machine, stampede
        from repro.cluster.storage import GB, KB, MB, SharedBandwidthPipe
        from repro.hdfs import HdfsCluster
        from repro.sim import Environment, SeedSequenceRegistry
        from repro.spark import SparkConf, SparkStandaloneCluster

        mr_env = Environment()
        machine = Machine(mr_env, stampede(num_nodes=4))
        hdfs = HdfsCluster(
            mr_env, machine, machine.nodes, replication=2,
            block_size=8 * MB,
            rng=SeedSequenceRegistry(inputs["seed"]).stream("suite"))
        mr_env.run(mr_env.process(hdfs.start()))

        spark_env = Environment()
        spark_machine = Machine(spark_env, stampede(num_nodes=4))
        cluster = SparkStandaloneCluster(spark_env, spark_machine,
                                         spark_machine.nodes)
        holder = {}

        def boot():
            yield spark_env.process(cluster.start())
            holder["ctx"] = yield from cluster.context(SparkConf(
                num_executors=4, executor_cores=2,
                default_parallelism=inputs["partitions"]))

        spark_env.run(spark_env.process(boot()))

        pipe_env = Environment()
        pipe = SharedBandwidthPipe(pipe_env, aggregate_bw=100 * GB,
                                   per_stream_bw=1 * GB, latency=1e-5)
        completed = [0]

        def stream(i):
            # 97 distinct sizes: completions never coincide, so every
            # finish is a pipe state change.
            size = (1 + (i % 97)) * 64 * KB
            for _ in range(self.TRANSFERS_PER_STREAM):
                yield pipe.transfer(size)
                completed[0] += 1

        for i in range(inputs["streams"]):
            pipe_env.process(stream(i))
        return {"mr_env": mr_env, "hdfs": hdfs, "block_bytes": 8 * MB,
                "spark_env": spark_env, "ctx": holder["ctx"],
                "pipe_env": pipe_env, "transfers_done": completed}

    def drive(self, world):
        from repro.mapreduce import MapReduceJob, MRJobSpec

        inputs = world["inputs"]

        t0 = time.perf_counter()
        env, hdfs = world["mr_env"], world["hdfs"]
        lines, blocks = inputs["lines"], inputs["blocks"]
        per = (len(lines) + blocks - 1) // blocks
        slices = [lines[i:i + per] for i in range(0, len(lines), per)]
        sim0 = env.now
        client = hdfs.client(hdfs.master_node.name)
        env.run(env.process(client.put(
            "/suite/lines", len(slices) * world["block_bytes"] - 1,
            payload_slices=slices)))
        job = MapReduceJob(env, MRJobSpec(
            name="suite-wordcount", input_path="/suite/lines",
            output_path="/suite/wc",
            mapper=lambda line: [(word, 1) for word in line],
            reducer=lambda word, counts: [(word, sum(counts))],
            num_reducers=inputs["reducers"]), hdfs)
        output = env.run(env.process(job.run_inline()))
        makespan = env.now - sim0
        t1 = time.perf_counter()

        env = world["spark_env"]
        sim0 = env.now
        rdd = world["ctx"].parallelize(
            inputs["pairs"], inputs["partitions"]).reduce_by_key(
                lambda a, b: a + b)
        reduced = env.run(env.process(rdd.collect()))
        makespan += env.now - sim0
        t2 = time.perf_counter()

        env = world["pipe_env"]
        env.run()
        makespan += env.now
        t3 = time.perf_counter()
        world.update(job=job, output=output, reduced=reduced,
                     makespan=makespan,
                     host={"mr": t1 - t0, "spark": t2 - t1, "pipe": t3 - t2})

    def check(self, world):
        inputs = world["inputs"]
        counted = {}
        for records in world["output"].values():
            counted.update(records)
        expected = inputs["wordcount"]
        wrong = sum(1 for word in expected.keys() | counted.keys()
                    if expected.get(word) != counted.get(word))
        pairs = len(inputs["lines"]) * self.WORDS_PER_LINE
        records = len(inputs["pairs"])
        transfers = inputs["streams"] * self.TRANSFERS_PER_STREAM
        wrong += abs(sum(v for _, v in world["reduced"]) - records)
        wrong += transfers - world["transfers_done"][0]
        counters_mr = world["job"].counters
        namenode = world["hdfs"].namenode
        blocks = sum(len(namenode.file_meta(path).blocks)
                     for path in namenode.list_files("/"))
        events = sum(world[k].steps
                     for k in ("mr_env", "spark_env", "pipe_env"))
        host = world["host"]
        items = pairs + records + transfers
        return Outcome(
            items=items, attempted=items, failed=wrong,
            makespan=world["makespan"],
            digest=sim_digest(world["makespan"], events,
                              sorted(counted.items()),
                              dataclasses.asdict(counters_mr)),
            counters={
                "sim.engine.events": events,
                "cluster.storage.transfers": transfers,
                "cluster.storage.transfers_per_s": transfers / host["pipe"],
                "mapreduce.pairs": counters_mr.map_output_records,
                "mapreduce.shuffle_bytes": counters_mr.shuffle_bytes,
                "mapreduce.pairs_per_s": pairs / host["mr"],
                "spark.records_per_s": records / host["spark"],
                "hdfs.blocks_written": blocks,
                "hdfs.local_map_frac": counters_mr.data_local_maps
                / max(1, counters_mr.maps_launched),
            })


# --------------------------------------------------- service-sessions
class ServiceSessions(Workload):
    name = "service-sessions"
    why = ("10,240 concurrent tenant sessions through repro.service: "
           "thousands of short ticketed submissions through admission "
           "and fair share, so a bulk-path gain that costs the "
           "small-batch path shows here")
    TENANTS = 64

    def prepare(self, seed, scale):
        from repro.service import LoadSpec

        return {"spec": LoadSpec(
            tenants=self.TENANTS,
            sessions_per_tenant=scaled(160, scale),
            tasks_per_session=2, arrival_window=2.0, task_seconds=5.0,
            raptor_workers=31, seed=seed),
            "min_concurrent": 10_000 if scale >= 1 else 0}

    def drive(self, world):
        from repro.service import run_load

        world["row"] = run_load(world["inputs"]["spec"])

    def check(self, world):
        inputs = world["inputs"]
        row, spec = world["row"], inputs["spec"]
        sessions = spec.tenants * spec.sessions_per_tenant
        failed = row["tickets_submitted"] - row["tickets_completed"]
        failed += row["sessions_opened"] - row["sessions_closed"]
        failed += sessions - row["sessions_opened"]
        # Concurrency is load-bearing: every session must still be open
        # when the last one arrives.
        if row["peak_concurrent_sessions"] < max(inputs["min_concurrent"],
                                                 sessions):
            failed += 1
        return Outcome(
            items=sessions, attempted=sessions, failed=failed,
            makespan=row["makespan"], digest=sim_digest(row),
            counters={
                "service.tickets_completed": row["tickets_completed"],
                "service.tickets_throttled": row["tickets_throttled"],
                "service.tickets_rejected": row["tickets_rejected"],
                "service.sim_submit_p95_s": row["submit_p95"],
                "service.sim_completion_p95_s": row["completion_p95"],
            })


# ------------------------------------------------------ persist-cycle
class PersistCycle(Workload):
    name = "persist-cycle"
    why = ("journaled quick sweeps + resume, then 10 checkpoints and 3 "
           "restores of an in-flight bag: writes beside reads on the "
           "persist layer (fsync cost is this host's disk)")
    GRIDS = ("figure5", "ablations", "chaos", "raptor", "service")
    CHECKPOINTS = 10
    RESTORES = 3

    def prepare(self, seed, scale):
        return {"seed": seed, "ntasks": scaled(2000, scale, 8)}

    def drive(self, world):
        from repro.experiments.sweeps import Sweep, run_sweep
        from repro.persist import PersistError, launch, restore, state_digest

        seed = world["inputs"]["seed"]
        host = dict.fromkeys(("journal", "resume", "checkpoint",
                              "restore"), 0.0)
        cells = resumed_executed = mismatches = 0
        digests: List[str] = []
        # Every journal and snapshot store lives in a TemporaryDirectory
        # so a run leaves the work tree clean.
        with tempfile.TemporaryDirectory(prefix="suite-persist-") as tmp:
            for grid in self.GRIDS:
                run_dir = os.path.join(tmp, grid)
                t0 = time.perf_counter()
                run = run_sweep(grid, root_seed=seed, jobs=1, quick=True,
                                run_dir=run_dir)
                t1 = time.perf_counter()
                resumed = Sweep.resume(run_dir, jobs=1)
                t2 = time.perf_counter()
                host["journal"] += t1 - t0
                host["resume"] += t2 - t1
                cells += len(run.results)
                resumed_executed += resumed.executed
                mismatches += resumed.digest() != run.digest()
                digests.append(run.digest())

            store = os.path.join(tmp, "store")
            session = launch("bag", seed=seed,
                             ntasks=world["inputs"]["ntasks"], nodes=4)
            t0 = time.perf_counter()
            for _ in range(self.CHECKPOINTS):
                session.env.run(until=session.env.now + 5.0)
                info = session.checkpoint(store)
                digests.append(info.state_digest)
            t1 = time.perf_counter()
            for _ in range(self.RESTORES):
                try:
                    mismatches += (state_digest(restore(store))
                                   != info.state_digest)
                except PersistError:
                    mismatches += 1
            host["restore"] = time.perf_counter() - t1
            host["checkpoint"] = t1 - t0
            snapshot_bytes = sum(
                os.path.getsize(os.path.join(folder, name))
                for folder, _, names in os.walk(store) for name in names)
        world.update(host=host, cells=cells, digests=digests,
                     resumed_executed=resumed_executed,
                     mismatches=mismatches, makespan=session.env.now,
                     barrier_steps=info.steps,
                     snapshot_bytes=snapshot_bytes)

    def check(self, world):
        host = world["host"]
        items = 2 * world["cells"] + self.CHECKPOINTS + self.RESTORES
        return Outcome(
            items=items, attempted=items,
            failed=world["resumed_executed"] + world["mismatches"],
            makespan=world["makespan"],
            digest=sim_digest(world["makespan"], world["barrier_steps"],
                              world["digests"]),
            counters={
                "persist.journal_record_s": host["journal"],
                "persist.resume_s": host["resume"],
                "persist.resume_cells_executed": world["resumed_executed"],
                "persist.checkpoint_s": host["checkpoint"],
                "persist.restore_s": host["restore"],
                "persist.snapshot_bytes": world["snapshot_bytes"],
            })


# --------------------------------------------------------- paper-figs
def band_deviation(value: float, band) -> float:
    """Relative distance of ``value`` outside ``band`` (0 inside)."""
    lo, hi = band
    if value > hi:
        return (value - hi) / hi
    if value < lo:
        return (lo - value) / lo
    return 0.0


def figure5_deviation(rows: List[Dict[str, Any]]) -> float:
    """Largest deviation over the five Figure 5 bands."""
    from repro.experiments.tables import PAPER_TARGETS

    plain = {r["machine"]: r["pilot_startup"] for r in rows
             if r.get("flavor") == "RP" and "pilot_startup" in r}
    worst = 0.0
    for row in rows:
        flavor = row["flavor"]
        if "unit_startup" in row:
            key = "unit_startup_yarn" if "YARN" in flavor \
                else "unit_startup_plain"
            value = row["unit_startup"]
        elif flavor == "RP":
            key, value = "pilot_startup_plain", row["pilot_startup"]
        elif flavor.endswith("(Mode I)"):
            key = "mode1_overhead"
            value = row["pilot_startup"] - plain[row["machine"]]
        else:
            key = "mode2_setup"
            value = abs(row["pilot_startup"] - plain[row["machine"]])
        worst = max(worst, band_deviation(value, PAPER_TARGETS[key]))
    return worst


class PaperFigs(Workload):
    name = "paper-figs"
    why = ("the full Figure 5 grid plus two Figure 6 K-Means cells: the "
           "paper's own artefacts, dominated by analytics (NumPy), so "
           "simulator optimisations must not move it; evaluates the "
           "Figure 5 paper bands")

    def prepare(self, seed, scale):
        from repro.experiments.sweeps import build_cells

        cells = [
            cell for cell in build_cells("figure6", root_seed=seed)
            if (cell.param("machine"), cell.param("points"),
                cell.param("ntasks")) == ("stampede", 1_000_000, 32)]
        if scale != 1:
            points = scaled(1_000_000, scale, 5_000)
            cells = [dataclasses.replace(cell, params=tuple(
                (k, points if k == "points" else v)
                for k, v in cell.params)) for cell in cells]
        return {"seed": seed, "figure6_cells": cells}

    def drive(self, world):
        from repro.experiments.sweeps import run_sweep

        inputs = world["inputs"]
        world["figure5"] = run_sweep("figure5", root_seed=inputs["seed"],
                                     jobs=1)
        world["figure6"] = run_sweep("figure6", root_seed=inputs["seed"],
                                     jobs=1, cells=inputs["figure6_cells"])

    def check(self, world):
        fig5, fig6 = world["figure5"], world["figure6"]
        rows5 = [row for r in fig5.results for row in r["rows"]]
        rows6 = [row for r in fig6.results for row in r["rows"]]
        items = len(fig5.results) + len(fig6.results)
        expected = 9 + len(world["inputs"]["figure6_cells"])
        failed = expected - items
        failed += sum(1 for row in rows6 if not row["centroids_ok"])
        makespan = sum(row.get("pilot_startup", 0.0)
                       + row.get("unit_startup", 0.0) for row in rows5)
        makespan += sum(row["runtime"] for row in rows6)
        plain = [r["pilot_startup"] for r in rows5
                 if r["flavor"] == "RP" and "pilot_startup" in r]
        yarn_units = [r["unit_startup"] for r in rows5
                      if r["flavor"] == "RP-YARN" and "unit_startup" in r]
        return Outcome(
            items=items, attempted=expected, failed=failed,
            makespan=makespan,
            digest=sim_digest(fig5.digest(), fig6.digest()),
            paper_dev=figure5_deviation(rows5),
            counters={
                "launch.sim_pilot_startup_s": sum(plain) / len(plain),
                "yarn.sim_unit_startup_s":
                    sum(yarn_units) / len(yarn_units),
                "analytics.fig6_cell_s":
                    sum(r["wall_seconds"] for r in fig6.results)
                    / max(1, len(fig6.results)),
            })


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Units("units-fork",
          "10,000 short CUs on a warm fork pilot: the paper's plain-RP "
          "per-unit path (core.db, core.unit_manager, core.agent.*, "
          "sim.engine); YARN, raptor, HDFS, MR, Spark do none",
          lrm="fork", units=10_000, cpu_seconds=0.05, memory_mb=128),
    Units("units-yarn",
          "3,000 1 s / 1 GB CUs on a Mode I YARN pilot: same core "
          "layers through the two-phase AM->container path, where the "
          "yarn layer dominates and wall grows super-linearly",
          lrm="yarn", units=3_000, cpu_seconds=1.0, memory_mb=1024),
    RaptorStream(),
    ShuffleDataplane(),
    ServiceSessions(),
    PersistCycle(),
    PaperFigs(),
)}
