"""Raptor overlay experiments: overlay vs. per-unit-YARN throughput.

The paper's Fig. 5 inset shows Compute-Unit startup dominated by the
2-step AM -> container allocation; this module quantifies what the
:mod:`repro.raptor` overlay buys back:

* **throughput** — the same function workload executed (a) as a task
  stream over a warm master/worker overlay and (b) as individual
  Compute-Units through the per-unit YARN path, reported as tasks/sec.
  The per-unit rate is measured on a capped steady-state sample
  (``per_unit_sample``) because the per-unit path at 1e5+ units is
  exactly the bottleneck the overlay removes; the rate extrapolates
  because per-unit startup cost is constant per unit.
* **equivalence** — both paths execute the identical seeded workload
  and must produce identical task results (same values, same order).
* **faults** — a worker node crashes mid-stream under a
  :class:`~repro.api.RestartPolicy`; in-flight tasks are re-dispatched
  and the stream still completes.
* **raptor-stream** (full grid) — a small task stream on a fork pilot,
  drained to its overlay counters; also the ``raptor-stream``
  checkpoint scenario.

All rows are functions of (parameters, seed) only — sim-clock derived,
wall-clock free — so the ``raptor`` sweep grid aggregates byte-identically
across ``--jobs`` values and under ``REPRO_SANITIZE=1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.sweeps import SweepCell, make_cell
from repro.persist.store import payload_digest

#: Task counts swept by the full throughput grid (the 1e4-1e6 range the
#: many-task literature targets) and by the CI-sized ``--quick`` grid.
THROUGHPUT_NTASKS = (10_000, 100_000, 1_000_000)
QUICK_NTASKS = (500, 2_000)

#: Steady-state sample size for the per-unit YARN rate measurement.
PER_UNIT_SAMPLE = 256

#: Modeled compute per task (reference-CPU seconds): small enough that
#: per-task overhead — not compute — dominates the per-unit path.
TASK_CPU_SECONDS = 0.05


@dataclass
class RaptorThroughputRow:
    """One throughput cell: overlay vs. per-unit tasks/sec."""

    machine: str
    ntasks: int
    workers: int
    overlay_tasks_per_sec: float
    per_unit_tasks_per_sec: float
    per_unit_sample: int
    speedup: float
    overlay_setup_seconds: float
    tasks_completed: int
    tasks_failed: int


@dataclass
class RaptorEquivalenceRow:
    """One equivalence cell: both paths, same workload, same results."""

    ntasks: int
    overlay_digest: str
    per_unit_digest: str
    identical: bool


@dataclass
class RaptorFaultRow:
    """One fault cell: worker crash + retry under a restart policy."""

    ntasks: int
    workers: int
    workers_lost: int
    tasks_retried: int
    tasks_completed: int
    tasks_failed: int
    all_completed: bool
    makespan: float


def _workload_value(seed: int, index: int) -> int:
    """The deterministic per-task payload both paths must agree on."""
    return (seed * 1_000_003 + index * index) % 7_919


def _yarn_testbed(machine: str, nodes: int, seed: int):
    from repro.experiments.calibration import agent_config
    from repro.experiments.harness import Testbed

    testbed = Testbed(machine, num_nodes=nodes + 1, seed=seed)
    pilot, _, _ = testbed.start_pilot(
        nodes=nodes, agent_config=agent_config("yarn"))
    return testbed, pilot


def run_raptor_throughput(ntasks: int, machine: str = "stampede",
                          nodes: int = 2, workers: Optional[int] = None,
                          per_unit_sample: int = PER_UNIT_SAMPLE,
                          seed: int = 42):
    """Overlay vs. per-unit-YARN tasks/sec for one task count."""
    from repro.api import ComputeUnitDescription, RaptorConfig, \
        TaskDescription

    # -- the overlay path: allocation paid once, tasks streamed.
    testbed, pilot = _yarn_testbed(machine, nodes, seed)
    if workers is None:
        # Every YARN app holds its AM container (1 vcore) next to the
        # task container, so a 16-core NM fits 8 concurrent apps; the
        # master takes one slot.
        workers = max(1, nodes * 8 - 1)
    t_setup0 = testbed.env.now
    overlay = testbed.session.raptor(
        pilot, workers=workers,
        config=RaptorConfig(retain_results=False))
    testbed.env.run(overlay.ready())
    setup = testbed.env.now - t_setup0
    t0 = testbed.env.now
    task = TaskDescription(cpu_seconds=TASK_CPU_SECONDS)
    overlay.submit_tasks([task] * ntasks, futures=False)
    yield testbed.session
    testbed.env.run(overlay.wait())
    overlay_rate = ntasks / (testbed.env.now - t0)
    stats = overlay.stats()
    testbed.env.run(overlay.close())

    # -- the per-unit path: every task pays the 2-step allocation.
    sample = min(ntasks, per_unit_sample)
    unit_testbed, _ = _yarn_testbed(machine, nodes, seed)
    t0 = unit_testbed.env.now
    units = unit_testbed.umgr.submit_units(
        [ComputeUnitDescription(cpu_seconds=TASK_CPU_SECONDS,
                                memory_mb=1024)] * sample)
    unit_testbed.env.run(unit_testbed.umgr.wait_units(units))
    per_unit_rate = sample / (unit_testbed.env.now - t0)

    return RaptorThroughputRow(
        machine=machine, ntasks=ntasks, workers=workers,
        overlay_tasks_per_sec=overlay_rate,
        per_unit_tasks_per_sec=per_unit_rate,
        per_unit_sample=sample,
        speedup=overlay_rate / per_unit_rate,
        overlay_setup_seconds=setup,
        tasks_completed=stats["tasks_completed"],
        tasks_failed=stats["tasks_failed"])


def run_raptor_equivalence(ntasks: int = 64, machine: str = "stampede",
                           nodes: int = 2, seed: int = 42):
    """Both paths execute the same seeded workload; results must match."""
    from repro.api import ComputeUnitDescription, TaskDescription

    # -- overlay path
    testbed, pilot = _yarn_testbed(machine, nodes, seed)
    overlay = testbed.session.raptor(pilot, workers=8)
    testbed.env.run(overlay.ready())
    futures = overlay.submit_tasks([
        TaskDescription(function=_workload_value, args=(seed, i),
                        cpu_seconds=TASK_CPU_SECONDS, name=f"eq-{i}")
        for i in range(ntasks)])
    yield testbed.session
    testbed.env.run(overlay.wait(futures))
    overlay_values = [f.result().result for f in futures]
    testbed.env.run(overlay.close())

    # -- per-unit path, same functions as Compute-Unit payloads
    unit_testbed, _ = _yarn_testbed(machine, nodes, seed)
    units = unit_testbed.umgr.submit_units([
        ComputeUnitDescription(function=_workload_value, args=(seed, i),
                               cpu_seconds=TASK_CPU_SECONDS,
                               memory_mb=1024, name=f"eq-{i}")
        for i in range(ntasks)])
    unit_testbed.env.run(unit_testbed.umgr.wait_units(units))
    unit_values = [u.result for u in units]

    overlay_digest = payload_digest(overlay_values)
    per_unit_digest = payload_digest(unit_values)
    return RaptorEquivalenceRow(
        ntasks=ntasks, overlay_digest=overlay_digest,
        per_unit_digest=per_unit_digest,
        identical=overlay_digest == per_unit_digest)


def run_raptor_faults(ntasks: int = 400, machine: str = "stampede",
                      nodes: int = 3, workers: int = 12, seed: int = 42):
    """Crash one worker node mid-stream; the stream still completes."""
    from repro.api import RestartPolicy, TaskDescription
    from repro.experiments.calibration import agent_config
    from repro.experiments.harness import Testbed

    testbed = Testbed(machine, num_nodes=nodes + 1, seed=seed)
    pilot, _, _ = testbed.start_pilot(
        nodes=nodes, agent_config=agent_config("fork"))
    overlay = testbed.session.raptor(
        pilot, workers=workers,
        restart_policy=RestartPolicy(max_restarts=3, backoff=1.0))
    testbed.env.run(overlay.ready())
    t0 = testbed.env.now
    # Deterministic victim: first worker node (sorted) that does not
    # host the master, so the overlay survives the crash.
    master_node = overlay.master.node.name
    victim = sorted({w.node.name for w in overlay.master.workers
                     if w.node.name != master_node})[0]
    testbed.session.faults.node_crash(at=t0 + 1.0, node=victim,
                                      duration=8.0)
    futures = overlay.submit_tasks([
        TaskDescription(cpu_seconds=0.2, name=f"ft-{i}")
        for i in range(ntasks)])
    yield testbed.session
    testbed.env.run(overlay.wait(futures))
    makespan = testbed.env.now - t0
    stats = overlay.stats()
    return RaptorFaultRow(
        ntasks=ntasks, workers=workers,
        workers_lost=stats["workers_lost"],
        tasks_retried=stats["tasks_retried"],
        tasks_completed=stats["tasks_completed"],
        tasks_failed=stats["tasks_failed"],
        all_completed=all(f.result().ok for f in futures),
        makespan=makespan)


def run_raptor_stream(workers: int = 2, ntasks: int = 12, nodes: int = 2,
                      seed: int = 42):
    """A raptor overlay's task stream, drained; the row is its counters.

    Yields mid-stream: the master and ``workers`` worker CUs are up and
    ``ntasks`` function tasks are submitted but not yet drained."""
    from repro.api import TaskDescription
    from repro.experiments.calibration import agent_config
    from repro.experiments.harness import Testbed

    testbed = Testbed("stampede", num_nodes=nodes, seed=seed)
    pilot, _, _ = testbed.start_pilot(nodes=nodes,
                                      agent_config=agent_config("fork"))
    overlay = testbed.session.raptor(pilot, workers=workers)
    testbed.env.run(overlay.ready())
    overlay.submit_tasks([
        TaskDescription(cpu_seconds=5.0, name=f"stream-{i}")
        for i in range(ntasks)], futures=False)
    yield testbed.session
    testbed.env.run(overlay.wait())
    return overlay.stats()


# ------------------------------------------------------------ sweep grid
RUNNERS = {"throughput": run_raptor_throughput,
           "equivalence": run_raptor_equivalence,
           "faults": run_raptor_faults,
           "raptor-stream": run_raptor_stream}


def cells(root_seed: int = 42, quick: bool = False) -> List[SweepCell]:
    """The throughput curve plus one equivalence and one fault cell;
    the full grid adds one small raptor stream."""
    counts = QUICK_NTASKS if quick else THROUGHPUT_NTASKS
    grid = [
        make_cell("raptor", "throughput", root_seed, machine="stampede",
                  ntasks=ntasks)
        for ntasks in counts
    ] + [make_cell("raptor", "equivalence", root_seed, ntasks=64),
         make_cell("raptor", "faults", root_seed,
                   ntasks=100 if quick else 400)]
    if not quick:
        grid.append(make_cell("raptor", "raptor-stream", root_seed))
    return grid
