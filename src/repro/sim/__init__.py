"""Discrete-event simulation kernel.

A small, SimPy-flavoured event engine that underpins every substrate in
this reproduction: batch schedulers, YARN/HDFS daemons, Spark executors
and the RADICAL-Pilot agent are all *processes* — Python generators that
yield events — driven by a single :class:`Environment` with a simulated
clock.

The kernel is deliberately minimal but complete:

* :class:`Environment` — event loop, simulated clock, process spawning.
* :class:`Event` / :class:`Timeout` / :class:`Process` / :class:`AnyOf` /
  :class:`AllOf` — the awaitable primitives.
* :class:`Resource` — counted capacity with FIFO queuing (cores, job
  slots).
* :class:`Level` — continuous quantity with put/get (memory pools,
  bandwidth tokens).
* :class:`Store` — FIFO object queue (message channels between daemons).
* :class:`Interrupt` — cooperative cancellation of a blocked process.
* :class:`Ticker` — park-while-idle, phase-aligned clock of a periodic loop.

All timing in the reproduction is expressed in *simulated seconds*; real
computation embedded in tasks executes eagerly while the clock advances
only by modeled durations, which is what lets the Figure 5/6 harnesses
produce deterministic, paper-shaped results on any hardware.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Ticker,
    Timeout,
)
from repro.sim.resources import Level, Resource, Store
from repro.sim.rng import RngStream, SeedSequenceRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Level",
    "Process",
    "Resource",
    "RngStream",
    "SeedSequenceRegistry",
    "SimulationError",
    "Store",
    "Ticker",
    "Timeout",
]
