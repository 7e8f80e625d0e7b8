"""The determinism oracle: run the pinned grids under perturbation.

The seven pinned ``--quick`` sweep digests below (jobs=1, root seed 42)
say that the rows have not moved: every grid's canonical aggregate is
byte-deterministic, so its sha256 is the cheapest oracle for "same
behaviour", and a refactor of the sweep runner, a cell body or the
simulation stack must leave all seven unchanged.  ``figure6`` and
``sensitivity`` are the slow grids (mostly K-Means analytics), so they
are pinned on a two-cell RP + RP-YARN subset; the cells keep their
full-grid keys and seeds, so the subset digests are as exact as the
full ones.  Update a pin only on a deliberate, documented change of the
rows.

This module also says that nothing outside the seed can move them: two
fresh interpreters recompute every pinned digest while everything the
seed does not control differs, and each digest must still equal its
pin.  The interpreters inherit ``os.environ``, so the CI sanitized shard
(``REPRO_SANITIZE=1``) pins sanitize on == off for every grid too.

==========================  ===============================================
perturbation                hazard it provokes
==========================  ===============================================
``PYTHONHASHSEED`` 1 vs 2   salted ``hash()`` of str/bytes; the iteration
                            order of str sets (and so of anything built
                            from one: schedules, digests, rows, metrics)
global RNGs reseeded        draws from ``random.*`` / legacy ``np.random.*``
(differently per run)       state instead of a seeded ``repro.sim.rng``
                            stream
cells and grids reversed    module-global counters or state carried from
                            one cell to the next
hazards banned              a cell body calling the wall clock,
                            ``uuid1``/``uuid4``, ``os.urandom``,
                            ``os.getenv`` or a global RNG: the call raises
                            *and* is recorded, so a broad ``except`` that
                            swallows the raise still fails the oracle
==========================  ===============================================

Rows are put back in declaration order before hashing (the aggregate
hashes in list order), so only a real change of a row shows.  The ban
covers the runner call alone: ``sweeps.run_cell`` times its runner with
``time.perf_counter`` outside it.  While a cell body runs, every
:class:`~repro.core.session.Session` it builds must get the cell's seed.
Each interpreter also runs one small telemetry-on bag; its metrics and
span JSONL must hash the same under both hash seeds.

The two interpreters run once per test session, in the
``oracle_reports`` fixture of ``tests/conftest.py``; the per-grid
tests of ``tests/experiments/test_sweep_digests.py`` read the same
reports.  Run one interpreter's half by hand (from the repository
root)::

    PYTHONHASHSEED=1 PYTHONPATH=src \\
        python -m tests.analysis.test_determinism_oracle 1
"""

import hashlib
import itertools
import json
import os
import random
import sys
import time
import uuid
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.session import Session
from repro.experiments.sweeps import (GRIDS, SweepCell, SweepRun,
                                      build_cells, grid_module, run_sweep)

QUICK_DIGESTS = {
    "figure5":
        "b56fa12390f215a8b1ce1b9558777d49ad6f0a828b89f105071e4a7a4d4b12a7",
    "ablations":
        "dc7de92ca611cc63b514a99f600a0cc7941f2a31dc56c4d9bf6c18e28ba27bb6",
    "chaos":
        "0d2096462b4b007225fca83bbcc0aae7ab7c17471156260acb3ddda1c09c62c1",
    "raptor":
        "1489ef7c5733724a377e1624434e0525845b4133cedcbef96fd29116e7144811",
    "service":
        "5859a9ac9d4d8dad9f89ddb9ee9ffd8f0f25300a16c10f040dd60199ce53eba2",
}

#: grid -> (cell filter, digest of the two selected cells).
SUBSET_DIGESTS = {
    "figure6": (
        {"machine": "stampede", "points": 10_000, "ntasks": 8},
        "2cc035e9258005e6f0727f8719cf074f63e5673f678359b46ae8594db57b6e65"),
    "sensitivity": (
        {"bw_mb": 10},
        "c468f6135bd30a3d4556b03a8693f946334cb243aa3a87c19ecf604095879901"),
}

PINNED = {**QUICK_DIGESTS,
          **{grid: digest for grid, (_, digest) in SUBSET_DIGESTS.items()}}


def pinned_cells(grid):
    """The cells behind ``grid``'s pinned digest, in declaration order:
    the whole quick grid, or the slow grid's RP + RP-YARN subset."""
    cells = build_cells(grid, root_seed=42, quick=True)
    if grid in SUBSET_DIGESTS:
        where = SUBSET_DIGESTS[grid][0]
        cells = [cell for cell in cells
                 if all(cell.param(k) == v for k, v in where.items())]
    return cells



@pytest.mark.parametrize("grid", sorted(SUBSET_DIGESTS))
def test_slow_grid_subset_is_one_rp_and_one_rp_yarn_cell(grid):
    assert sorted(cell.param("flavor") for cell in pinned_cells(grid)) == \
        ["RP", "RP-YARN"]

def _hazards():
    """(module, name) of every callable a cell body must not call."""
    for name in ("time", "time_ns", "monotonic", "monotonic_ns",
                 "perf_counter", "perf_counter_ns", "process_time"):
        yield time, name
    yield uuid, "uuid1"
    yield uuid, "uuid4"
    yield os, "urandom"
    yield os, "getenv"
    # The global RNGs: every module function bound to the hidden shared
    # instance (``random.random``, ``np.random.rand``, ...).
    for module, shared in ((random, random._inst),
                           (np.random, np.random.mtrand._rand)):
        for name in dir(module):
            if getattr(getattr(module, name), "__self__", None) is shared:
                yield module, name
    yield np.random, "seed"


HAZARDS = tuple(_hazards())


class Nondeterministic(RuntimeError):
    """A cell body called a hazard."""


@contextmanager
def banned(hits, session_seeds):
    """Every hazard raises and appends its name to ``hits``; every
    Session built meanwhile appends its seed to ``session_seeds``."""
    saved = [(module, name, getattr(module, name))
             for module, name in HAZARDS]
    init = Session.__init__

    def trap(label):
        def call(*args, **kwargs):
            hits.append(label)
            raise Nondeterministic(f"{label} called in a cell body")
        return call

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        session_seeds.append(self.rng.root_seed)

    for module, name, _ in saved:
        setattr(module, name, trap(f"{module.__name__}.{name}"))
    Session.__init__ = record
    try:
        yield
    finally:
        Session.__init__ = init
        for module, name, fn in saved:
            setattr(module, name, fn)


def guarded(grid, kind, runner, hits, strays):
    """``runner`` with the hazards banned for the call; hits and
    sessions off the cell seed are logged under the cell's key."""
    def run(seed, **params):
        key = SweepCell(grid, kind, tuple(sorted(params.items())), seed).key
        found, seeds = [], []
        try:
            with banned(found, seeds):
                return runner(seed=seed, **params)
        finally:
            hits.extend(f"{key}: {name}" for name in found)
            strays.extend(f"{key}: Session(seed={s}), cell seed {seed}"
                          for s in seeds if s != seed)
    return run


def perturbed_digest(grid, cells, hits, strays):
    """Run ``cells`` last-first under the ban; the digest of their rows
    put back in declaration order."""
    module = grid_module(grid)
    runners = module.RUNNERS
    module.RUNNERS = {kind: guarded(grid, kind, fn, hits, strays)
                      for kind, fn in runners.items()}
    try:
        run = run_sweep(grid, root_seed=42, jobs=1, cells=cells[::-1])
    finally:
        module.RUNNERS = runners
    by_key = {result["key"]: result for result in run.results}
    return SweepRun(grid=grid, root_seed=42, jobs=1,
                    results=[by_key[cell.key] for cell in cells]).digest()


def checked_digest(grid, hits, strays):
    """:func:`perturbed_digest` of ``grid``'s pinned cells; a raise
    becomes the digest, so it fails the comparison with the pin."""
    try:
        return perturbed_digest(grid, pinned_cells(grid), hits, strays)
    except Exception as exc:
        return f"raised {exc!r}"


def telemetry_digest():
    """sha256 of a small telemetry-on bag's metrics and span JSONL."""
    from repro.api import ComputeUnitDescription
    from repro.experiments.calibration import agent_config
    from repro.experiments.harness import Testbed

    testbed = Testbed("stampede", num_nodes=2, seed=42)
    tel = testbed.session.telemetry
    testbed.start_pilot(nodes=2, agent_config=agent_config("yarn"))
    units = testbed.umgr.submit_units([
        ComputeUnitDescription(cores=1, cpu_seconds=30.0, memory_mb=1024,
                               name=f"bag-{i}") for i in range(8)])
    testbed.env.run(testbed.umgr.wait_units(units))
    text = tel.metrics.to_jsonl() + "\n" + tel.tracer.to_jsonl()
    return hashlib.sha256(text.encode()).hexdigest()


def oracle_report(rng_seed):
    """One interpreter's half of the oracle, as a JSON-able dict."""
    random.seed(rng_seed)
    np.random.seed(rng_seed)
    hits, strays = [], []
    digests = {grid: checked_digest(grid, hits, strays)
               for grid in reversed(GRIDS)}
    found = []
    try:
        with banned(found, []):
            telemetry = telemetry_digest()
    except Exception as exc:
        telemetry = f"raised {exc!r}"
    hits.extend(f"telemetry bag: {name}" for name in found)
    return {"digests": digests, "hits": hits, "strays": strays,
            "telemetry": telemetry}


def test_pinned_digests_hold_under_perturbation(oracle_reports):
    for report in oracle_reports:
        assert report["digests"] == PINNED


def test_no_cell_body_calls_a_hazard(oracle_reports):
    assert [report["hits"] for report in oracle_reports] == [[], []]


def test_every_session_in_a_cell_gets_the_cell_seed(oracle_reports):
    assert [report["strays"] for report in oracle_reports] == [[], []]


def test_telemetry_is_independent_of_the_hash_seed(oracle_reports):
    first, second = (report["telemetry"] for report in oracle_reports)
    assert not first.startswith("raised"), first
    assert first == second


# Planted hazards.  Each plant sits in a real simulation path of the
# quick ``figure5`` grid and must fail the oracle in-process; the plants
# caught by the hash seed need two interpreters and are not repeated here.
def test_planted_wall_clock_in_fork_placement_is_caught(monkeypatch):
    from repro.core.agent.scheduler import ContinuousScheduler
    allocate = ContinuousScheduler.allocate

    def planted(self, cores):
        self.asked_at = time.time()
        return allocate(self, cores)

    monkeypatch.setattr(ContinuousScheduler, "allocate", planted)
    hits = []
    assert checked_digest("figure5", hits, []) != PINNED["figure5"]
    assert hits and all(hit.endswith(": time.time") for hit in hits)


@pytest.mark.parametrize("name", ["random.random", "numpy.random.random"])
def test_planted_global_rng_in_a_pipe_delay_is_caught(monkeypatch, name):
    from repro.cluster.storage import SharedBandwidthPipe
    transfer = SharedBandwidthPipe.transfer
    module = random if name == "random.random" else np.random

    def planted(self, nbytes):
        return transfer(self, nbytes * (1 + 1e-9 * module.random()))

    monkeypatch.setattr(SharedBandwidthPipe, "transfer", planted)
    hits = []
    assert checked_digest("figure5", hits, []) != PINNED["figure5"]
    assert hits and all(hit.endswith(f": {name}") for hit in hits)


def test_planted_environment_read_in_a_pipe_delay_is_caught(monkeypatch):
    from repro.cluster.storage import SharedBandwidthPipe
    transfer = SharedBandwidthPipe.transfer

    def planted(self, nbytes):
        return transfer(self, nbytes * float(os.getenv("PIPE_SCALE", "1")))

    monkeypatch.setattr(SharedBandwidthPipe, "transfer", planted)
    hits = []
    assert checked_digest("figure5", hits, []) != PINNED["figure5"]
    assert hits and all(hit.endswith(": os.getenv") for hit in hits)


def test_a_broad_except_cannot_hide_a_hit(monkeypatch):
    """The swallowed raise leaves every row intact; the hit list alone
    fails the oracle."""
    from repro.core.agent.scheduler import ContinuousScheduler
    allocate = ContinuousScheduler.allocate

    def planted(self, cores):
        try:
            self.asked_at = time.monotonic()
        except Exception:
            self.asked_at = None
        return allocate(self, cores)

    monkeypatch.setattr(ContinuousScheduler, "allocate", planted)
    hits = []
    assert checked_digest("figure5", hits, []) == PINNED["figure5"]
    assert hits and all(hit.endswith(": time.monotonic") for hit in hits)


def test_planted_module_global_uid_counter_is_caught(monkeypatch):
    counter = itertools.count(1)

    def planted(self, prefix, width=4):
        return f"{prefix}.{next(counter):0{width}d}"

    monkeypatch.setattr(Session, "next_uid", planted)
    hits = []
    assert checked_digest("figure5", hits, []) != PINNED["figure5"]
    assert hits == []


def test_planted_session_off_the_cell_seed_is_caught(monkeypatch):
    from repro.experiments import harness

    monkeypatch.setattr(harness, "Session",
                        lambda env, registry, seed: Session(env, registry))
    strays = []
    checked_digest("figure5", [], strays)
    assert strays and all(stray.startswith("figure5/")
                          for stray in strays)


if __name__ == "__main__":
    print(json.dumps(oracle_report(int(sys.argv[1]))))
