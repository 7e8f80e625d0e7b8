"""Shared fixtures for RADICAL-Pilot core tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import stampede, wrangler
from repro.api import PilotManager, Session, UnitManager
from repro.rms import RmsConfig
from repro.saga import Registry, Site
from repro.sim import Environment

#: Fast batch system for tests that don't measure startup times.
FAST_RMS = RmsConfig(submit_latency=0.2, prolog_seconds=0.5,
                     epilog_seconds=0.2)


def make_stack():
    """(env, registry, session, pmgr, umgr) on a 3-node Stampede."""
    env = Environment()
    registry = Registry()
    registry.register(Site(env, stampede(num_nodes=3),
                           rms_config=FAST_RMS))
    registry.register(Site(env, wrangler(num_nodes=3),
                           rms_config=FAST_RMS, hostname="wrangler"))
    session = Session(env, registry)
    pmgr = PilotManager(session)
    umgr = UnitManager(session)
    return env, registry, session, pmgr, umgr


@pytest.fixture()
def stack():
    """A fresh :func:`make_stack` world per test."""
    return make_stack()


@pytest.fixture(scope="session")
def oracle_reports():
    """The determinism oracle's two reports (``PYTHONHASHSEED`` 1 and 3),
    from two interpreters run side by side once per session; see
    ``tests/analysis/test_determinism_oracle.py``."""
    root = Path(__file__).resolve().parents[1]
    inherited = os.environ.get("PYTHONPATH")
    path = str(root / "src") + (os.pathsep + inherited if inherited else "")
    procs = [subprocess.Popen(
        [sys.executable, "-m", "tests.analysis.test_determinism_oracle",
         str(seed)],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": path,
             "PYTHONHASHSEED": str(seed)})
        for seed in (1, 3)]
    try:
        outs = [proc.communicate(timeout=600) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()  # a no-op once the interpreter has exited
    for proc, (_, stderr) in zip(procs, outs, strict=True):
        assert proc.returncode == 0, stderr
    return [json.loads(stdout) for stdout, _ in outs]
