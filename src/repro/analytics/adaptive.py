"""Adaptive sampling: simulation results steering the next simulations.

The paper's motivation (§I): "Often times the data generated needs to
be analyzed so as to determine the next set of simulation
configurations."  This module implements that loop over the pilot:

1. run a batch of "MD" Compute-Units, each sampling a 1-D reaction
   coordinate around a seed position (real NumPy random walks);
2. analyze the pooled samples: histogram coverage of the coordinate;
3. seed the next batch at the least-sampled regions;
4. repeat — coverage of the coordinate space improves monotonically,
   which the driver returns per round so callers (and tests) can check.

This is the textbook adaptive-sampling / Markov-state-model workflow
(e.g. ExTASY, RepEx [paper ref 36]) reduced to one dimension.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.description import ComputeUnitDescription

#: Reaction-coordinate domain sampled by the walkers.
DOMAIN = (0.0, 10.0)


def simulate_walker(seed_position: float, num_steps: int,
                    rng_seed: int, step_sigma: float = 0.15) -> np.ndarray:
    """One 'MD run': a reflected random walk on the coordinate."""
    rng = np.random.default_rng(rng_seed)
    lo, hi = DOMAIN
    position = float(np.clip(seed_position, lo, hi))
    samples = np.empty(num_steps)
    for i in range(num_steps):
        position += rng.normal(0.0, step_sigma)
        position = lo + abs(position - lo)
        position = hi - abs(hi - position)
        samples[i] = position
    return samples


def coverage(samples: np.ndarray, num_bins: int = 50) -> float:
    """Fraction of coordinate bins visited at least once."""
    if len(samples) == 0:
        return 0.0
    hist, _ = np.histogram(samples, bins=num_bins, range=DOMAIN)
    return float((hist > 0).mean())


def pick_seeds(samples: np.ndarray, num_seeds: int,
               num_bins: int = 50) -> List[float]:
    """Seed positions at the centers of the least-sampled bins."""
    hist, edges = np.histogram(samples, bins=num_bins, range=DOMAIN)
    centers = (edges[:-1] + edges[1:]) / 2
    order = np.argsort(hist, kind="stable")
    return [float(centers[i]) for i in order[:num_seeds]]


def run_adaptive_sampling(umgr, rounds: int = 3, walkers: int = 4,
                          steps_per_walker: int = 400,
                          cpu_seconds_per_step: float = 0.5,
                          seed: int = 71,
                          num_bins: int = 50):
    """The full loop over a Unit-Manager.  Generator.

    Returns ``(all_samples, coverage_per_round)``.
    """
    all_samples = np.empty(0)
    coverage_history: List[float] = []
    lo, hi = DOMAIN
    seeds = list(np.linspace(lo + 0.5, lo + 1.5, walkers))  # biased start

    for round_index in range(rounds):
        descs = []
        for w, seed_pos in enumerate(seeds):
            descs.append(ComputeUnitDescription(
                executable="md_walker",
                arguments=(f"--seed-pos={seed_pos:.3f}",),
                name=f"walker-r{round_index}-w{w}",
                cores=1,
                cpu_seconds=cpu_seconds_per_step * steps_per_walker,
                output_bytes=8.0 * steps_per_walker,
                function=simulate_walker,
                args=(seed_pos, steps_per_walker,
                      seed + round_index * 1000 + w)))
        units = umgr.submit_units(descs)
        yield umgr.wait_units(units)
        failed = [u for u in units if u.state.value != "Done"]
        if failed:
            raise RuntimeError(f"{len(failed)} walkers failed")
        round_samples = np.concatenate([u.result for u in units])
        all_samples = np.concatenate([all_samples, round_samples])
        coverage_history.append(coverage(all_samples, num_bins))
        # analysis drives the next round's configurations
        seeds = pick_seeds(all_samples, walkers, num_bins)

    return all_samples, coverage_history
