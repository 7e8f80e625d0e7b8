"""Figure 5: RADICAL-Pilot and RADICAL-Pilot-YARN overheads.

Main panel: pilot startup time (submission to first-unit-processable,
i.e. pilot ACTIVE) for plain RP, RP-YARN Mode I and RP-YARN Mode II on
Stampede and Wrangler.  Inset: Compute-Unit startup time (submission
to the task process starting) for plain RP vs RP-YARN.

Paper anchors:
* Mode I adds 50-85 s over plain RP (download + configure + daemon
  start), depending on the machine;
* Mode II startup ≈ plain RP startup ("comparable ... as it is not
  necessary to spawn a Hadoop cluster");
* CU startup: seconds for RP, tens of seconds for RP-YARN (two-stage
  AM-then-container allocation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.api import ComputeUnitDescription
from repro.experiments.calibration import agent_config
from repro.experiments.harness import Testbed
from repro.experiments.sweeps import SweepCell, make_cell


@dataclass
class StartupRow:
    """One bar of Figure 5."""

    machine: str
    flavor: str           # "RP" | "RP-YARN (Mode I)" | "RP-YARN (Mode II)"
    pilot_startup: float  # seconds, submission -> ACTIVE
    lrm_setup: float      # seconds inside that spent on Hadoop/Spark


#: What each figure bar is configured as: (machine, flavor, lrm,
#: provision dedicated Hadoop first?).  Stampede offers no dedicated
#: Hadoop, so Mode II exists only on Wrangler — as in the paper.
PILOT_CASES = [
    ("stampede", "RP", "fork", False),
    ("stampede", "RP-YARN (Mode I)", "yarn", False),
    ("wrangler", "RP", "fork", False),
    ("wrangler", "RP-YARN (Mode I)", "yarn", False),
    ("wrangler", "RP-YARN (Mode II)", "yarn-connect", True),
]


def pilot_startup(machine: str, flavor: str, lrm: str, provision: bool,
                  seed: int = 42):
    """One bar of the main panel: a one-node pilot, submit -> ACTIVE."""
    testbed = Testbed(machine, num_nodes=1, seed=seed,
                      provision_hadoop=provision)
    pilot, t_submit, t_active = testbed.start_pilot(
        nodes=1, agent_config=agent_config(lrm))
    yield testbed.session
    return StartupRow(machine=machine, flavor=flavor,
                      pilot_startup=t_active - t_submit,
                      lrm_setup=pilot.agent_info["lrm_setup_seconds"])


@dataclass
class UnitStartupRow:
    """One bar of Figure 5's inset."""

    machine: str
    flavor: str           # "RP" | "RP-YARN"
    unit_startup: float   # seconds, submission -> task process start


UNIT_CASES = [
    ("stampede", "RP", "fork"),
    ("stampede", "RP-YARN", "yarn"),
    ("wrangler", "RP", "fork"),
    ("wrangler", "RP-YARN", "yarn"),
]


def unit_startup(machine: str, flavor: str, lrm: str,
                 seed: int = 42):
    """One bar of the inset: CU startup on a warm pilot, averaged over
    three sequential submissions."""
    testbed = Testbed(machine, num_nodes=1, seed=seed)
    testbed.start_pilot(nodes=1, agent_config=agent_config(lrm))
    startups = []
    for _ in range(3):
        units = testbed.umgr.submit_units(ComputeUnitDescription(
            executable="/bin/sleep", arguments=("1",),
            cores=1, cpu_seconds=1.0, memory_mb=1024))
        if not startups:
            yield testbed.session
        testbed.env.run(testbed.umgr.wait_units(units))
        if units[0].state.value != "Done":
            raise RuntimeError(
                f"unit failed on {machine}/{flavor}: {units[0].stderr}")
        startups.append(units[0].startup_time)
    return UnitStartupRow(machine=machine, flavor=flavor,
                          unit_startup=sum(startups) / len(startups))


# ------------------------------------------------------------ sweep grid
def cells(root_seed: int = 42, quick: bool = False) -> List[SweepCell]:
    """Both Figure 5 panels: one cell per bar (``quick`` changes
    nothing)."""
    return [
        make_cell("figure5", "pilot-startup", root_seed, machine=machine,
                  flavor=flavor, lrm=lrm, provision=provision)
        for machine, flavor, lrm, provision in PILOT_CASES
    ] + [
        make_cell("figure5", "unit-startup", root_seed, machine=machine,
                  flavor=flavor, lrm=lrm)
        for machine, flavor, lrm in UNIT_CASES
    ]


RUNNERS = {"pilot-startup": pilot_startup, "unit-startup": unit_startup}
