"""Ablations: quantifying the paper's design choices.

* **A1 — integration level (§III-C):** the paper integrates YARN at the
  RADICAL-Pilot-Agent level and rejects Pilot-Manager-level integration
  (firewalls, chatty AM protocol over the WAN).  We wire the rejected
  design — every YARN protocol interaction crossing the client<->site
  WAN — and measure the extra Compute-Unit latency it would pay even
  where firewalls allowed it.
* **A2 — Spark deployment mode (§III-D):** standalone (chosen) vs
  Spark-on-YARN (rejected: "two instead of one framework need to be
  configured and run").  We measure time-to-usable-cluster both ways.
* **A3 — AM re-use (§III-C/IV-A):** the paper names Application Master
  and container re-use as the optimization that "will reduce the
  startup time significantly"; we implement it and measure warm-unit
  startup with and without.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.api import ComputeUnitDescription
from repro.experiments.calibration import CALIBRATED_YARN, agent_config
from repro.experiments.harness import Testbed, experiment_machine
from repro.experiments.sweeps import SweepCell, make_cell
from repro.cluster.machine import Machine
from repro.sim import Environment
from repro.spark.cluster import SparkStandaloneCluster
from repro.hdfs.cluster import HdfsCluster
from repro.yarn.cluster import YarnCluster
from repro.yarn.records import AppSpec, YarnResource


# ------------------------------------------------------------------- A1
@dataclass
class IntegrationLevelRow:
    wiring: str            # "agent-level" | "pilot-manager-level"
    unit_startup: float    # seconds
    wan_roundtrips: int


#: Client<->cluster protocol interactions a PM-level integration would
#: push over the WAN per Compute-Unit: application submission, AM
#: registration relay, container request, container grant, launch RPC,
#: plus status polls at the AM heartbeat over the startup window.
PM_LEVEL_RPC_PER_UNIT = 5


def run_integration_level(machine: str = "stampede",
                          wan_rtt: float = 0.100,
                          seed: int = 42) -> List[IntegrationLevelRow]:
    """A1: CU startup under both wirings.

    Agent-level is measured end-to-end on a warm YARN pilot.  The
    PM-level variant adds one WAN round-trip per protocol interaction
    plus WAN-paced status polling (the AM heartbeat effectively
    stretches to the WAN RTT).
    """
    testbed = Testbed(machine, num_nodes=1, seed=seed)
    testbed.start_pilot(nodes=1, agent_config=agent_config("yarn"))
    units = testbed.umgr.submit_units(ComputeUnitDescription(
        cores=1, cpu_seconds=1.0, memory_mb=1024))
    testbed.env.run(testbed.umgr.wait_units(units))
    agent_level = units[0].startup_time

    # Rejected design: same choreography, chatty parts over the WAN.
    heartbeats_in_startup = agent_level / CALIBRATED_YARN.am_heartbeat
    pm_level = (agent_level
                + PM_LEVEL_RPC_PER_UNIT * 2 * wan_rtt
                + heartbeats_in_startup * 2 * wan_rtt)
    return [
        IntegrationLevelRow("agent-level", agent_level, 0),
        IntegrationLevelRow("pilot-manager-level", pm_level,
                            PM_LEVEL_RPC_PER_UNIT
                            + int(heartbeats_in_startup)),
    ]


# ------------------------------------------------------------------- A2
@dataclass
class SparkDeployRow:
    mode: str              # "standalone" | "spark-on-yarn"
    cluster_ready: float   # seconds from bootstrap start
    frameworks_started: int


def run_spark_deploy_mode(machine: str = "stampede", num_nodes: int = 2,
                          num_executors: int = 2,
                          seed: int = 42) -> List[SparkDeployRow]:
    """A2: time until Spark executors are usable, both deployments."""
    rows = []

    # --- standalone (chosen) ---
    env = Environment()
    m = Machine(env, experiment_machine(machine, num_nodes))
    spark = SparkStandaloneCluster(env, m, m.nodes)

    def standalone():
        yield env.process(spark.start())
        ctx = yield from spark.context()
        ctx.stop()

    t0 = env.now
    env.run(env.process(standalone()))
    rows.append(SparkDeployRow("standalone", env.now - t0, 1))

    # --- Spark on YARN (rejected) ---
    env2 = Environment()
    m2 = Machine(env2, experiment_machine(machine, num_nodes))
    hdfs = HdfsCluster(env2, m2, m2.nodes, replication=2)
    yarn = YarnCluster(env2, m2, m2.nodes,
                       config=CALIBRATED_YARN.scaled(m2.spec.cpu_speed))

    def on_yarn():
        # both frameworks must be configured and started (the paper's
        # stated objection)
        yield env2.process(hdfs.start())
        yield env2.process(yarn.start())

        def spark_am(ctx):
            # Spark's YARN AM: request one executor container per
            # executor, wait for them all to launch.
            ctx.request_containers(
                num_executors, YarnResource(4096, 2))
            got = yield from ctx.wait_for_containers(num_executors)

            def executor(env_, c):
                yield env_.timeout(4.0)   # executor JVM

            yield ctx.env.all_of([ctx.start_container(c, executor)
                                  for c in got])
            ctx.finish("SUCCEEDED")

        client = yarn.client()
        app = yield from client.submit(AppSpec(
            name="spark-on-yarn", am_resource=YarnResource(1024, 1),
            am_program=spark_am, app_type="SPARK"))
        yield from client.wait_for_completion(app)

    t0 = env2.now
    env2.run(env2.process(on_yarn()))
    rows.append(SparkDeployRow("spark-on-yarn", env2.now - t0, 2))
    return rows


# ------------------------------------------------------------------- A3
@dataclass
class AmReuseRow:
    mode: str              # "per-unit AM" | "re-used AM"
    warm_unit_startup: float


def run_am_reuse(machine: str = "stampede", samples: int = 4,
                 seed: int = 42) -> List[AmReuseRow]:
    """A3: warm Compute-Unit startup with and without AM re-use."""
    rows = []
    for label, reuse in (("per-unit AM", False), ("re-used AM", True)):
        testbed = Testbed(machine, num_nodes=1, seed=seed)
        testbed.start_pilot(nodes=1, agent_config=agent_config(
            "yarn", reuse_application_master=reuse))
        # warm-up unit: pays pool-AM startup in the re-use case
        warmup = testbed.umgr.submit_units(ComputeUnitDescription(
            cores=1, cpu_seconds=1.0, memory_mb=1024))
        testbed.env.run(testbed.umgr.wait_units(warmup))
        startups = []
        for _ in range(samples):
            units = testbed.umgr.submit_units(ComputeUnitDescription(
                cores=1, cpu_seconds=1.0, memory_mb=1024))
            testbed.env.run(testbed.umgr.wait_units(units))
            startups.append(units[0].startup_time)
        rows.append(AmReuseRow(label, sum(startups) / len(startups)))
    return rows


# ------------------------------------------------------------ sweep grid
RUNNERS = {"integration-level": run_integration_level,
           "spark-deploy-mode": run_spark_deploy_mode,
           "am-reuse": run_am_reuse}


def cells(root_seed: int = 42, quick: bool = False) -> List[SweepCell]:
    """One parameter-free cell per ablation (``quick`` changes
    nothing)."""
    return [make_cell("ablations", kind, root_seed) for kind in RUNNERS]
