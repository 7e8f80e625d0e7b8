"""Tests for the adaptive-sampling workload."""

import numpy as np

from repro.analytics import (
    coverage,
    pick_seeds,
    run_adaptive_sampling,
    simulate_walker,
)
from repro.analytics.adaptive import DOMAIN
from repro.api import ComputePilotDescription, PilotState
from tests.core.test_units import fast_agent


def test_walker_stays_in_domain_and_deterministic():
    a = simulate_walker(5.0, 500, rng_seed=3)
    b = simulate_walker(5.0, 500, rng_seed=3)
    lo, hi = DOMAIN
    assert np.array_equal(a, b)
    assert a.min() >= lo and a.max() <= hi


def test_coverage_monotone_in_samples():
    rng = np.random.default_rng(0)
    few = rng.uniform(*DOMAIN, size=5)
    many = np.concatenate([few, rng.uniform(*DOMAIN, size=500)])
    assert coverage(many) >= coverage(few)
    assert coverage(np.empty(0)) == 0.0


def test_pick_seeds_targets_empty_bins():
    # all samples in [0, 1): the least-sampled bins are elsewhere
    samples = np.random.default_rng(1).uniform(0.0, 1.0, size=200)
    seeds = pick_seeds(samples, num_seeds=5, num_bins=20)
    assert all(s > 1.0 for s in seeds)


def test_adaptive_loop_improves_coverage(stack):
    env, registry, session, pmgr, umgr = stack
    pilot = pmgr.submit_pilot(ComputePilotDescription(
        resource="slurm://stampede", nodes=2, runtime=600,
        agent_config=fast_agent()))
    umgr.add_pilots(pilot)
    env.run(pilot.wait(PilotState.ACTIVE))
    holder = {}

    def driver():
        samples, history = yield from run_adaptive_sampling(
            umgr, rounds=3, walkers=4, steps_per_walker=300,
            cpu_seconds_per_step=0.01)
        holder["samples"] = samples
        holder["history"] = history

    env.run(env.process(driver()))
    history = holder["history"]
    assert len(history) == 3
    # coverage never decreases and the adaptive rounds add ground
    assert all(b >= a for a, b in zip(history, history[1:], strict=False))
    assert history[-1] > history[0]
    assert len(holder["samples"]) == 3 * 4 * 300
