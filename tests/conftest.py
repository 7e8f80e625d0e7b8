"""Shared fixtures for RADICAL-Pilot core tests."""

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
