"""Replica-exchange sampling (paper ref [36]: RepEx).

The paper grounds the Pilot-Abstraction's HPC track record in RepEx,
"a flexible framework for scalable replica exchange molecular dynamics
simulations".  We implement the synchronous temperature-exchange
pattern over Compute-Units:

* each *replica* samples a 1-D double-well potential with Metropolis
  Monte Carlo at its own temperature (a real NumPy computation — the
  stand-in for an MD engine);
* after every simulation phase, adjacent temperature pairs attempt an
  exchange with the standard criterion
  ``min(1, exp((1/T_i - 1/T_j) (E_i - E_j)))``;
* rounds repeat — the canonical simulation/exchange cadence a pilot
  serves without re-queueing through the batch system.

The double well ``V(x) = (x^2 - 1)^2`` has minima at x = ±1: cold
replicas get trapped in one well; the temperature ladder lets
configurations escape via the hot end, which the tests verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.description import ComputeUnitDescription


def potential(x: float) -> float:
    """The double-well potential V(x) = (x^2 - 1)^2."""
    return (x * x - 1.0) ** 2


def mc_run(start_x: float, temperature: float, steps: int,
           rng_seed: int, step_size: float = 0.25
           ) -> Tuple[np.ndarray, float, float]:
    """One replica's Metropolis run.

    Returns (samples, final_x, mean_energy).
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    rng = np.random.default_rng(rng_seed)
    x = float(start_x)
    energy = potential(x)
    samples = np.empty(steps)
    energies = np.empty(steps)
    for i in range(steps):
        proposal = x + rng.normal(0.0, step_size)
        e_new = potential(proposal)
        if e_new <= energy or rng.random() < np.exp(
                (energy - e_new) / temperature):
            x, energy = proposal, e_new
        samples[i] = x
        energies[i] = energy
    return samples, x, float(energies.mean())


def exchange_probability(t_i: float, t_j: float,
                         e_i: float, e_j: float) -> float:
    """The replica-exchange Metropolis criterion."""
    delta = (1.0 / t_i - 1.0 / t_j) * (e_i - e_j)
    return float(min(1.0, np.exp(delta)))


@dataclass
class RepexResult:
    """Everything a replica-exchange run produces."""

    temperatures: List[float]
    samples_by_temperature: List[np.ndarray]   # aligned with temperatures
    exchange_attempts: int = 0
    exchanges_accepted: int = 0
    rounds: int = 0

    @property
    def acceptance_ratio(self) -> float:
        if self.exchange_attempts == 0:
            return 0.0
        return self.exchanges_accepted / self.exchange_attempts


def run_replica_exchange(umgr, temperatures: List[float],
                         rounds: int = 4, steps_per_round: int = 400,
                         cpu_seconds_per_step: float = 0.05,
                         seed: int = 33) -> "generator":
    """Synchronous replica exchange over a Unit-Manager.  Generator.

    Each round submits one Compute-Unit per replica (the simulation
    phase runs concurrently on the pilot), then performs the exchange
    phase at the application level — the paper's coupled
    simulation/analysis pattern in its purest form.  Returns a
    :class:`RepexResult`.
    """
    if len(temperatures) < 2:
        raise ValueError("need at least 2 replicas")
    if sorted(temperatures) != list(temperatures):
        raise ValueError("temperatures must be sorted ascending")
    rng = np.random.default_rng(seed)
    positions = [(-1.0 if i % 2 == 0 else 1.0)
                 for i in range(len(temperatures))]
    result = RepexResult(
        temperatures=list(temperatures),
        samples_by_temperature=[np.empty(0) for _ in temperatures])

    for round_index in range(rounds):
        descs = []
        for r, (x0, temp) in enumerate(zip(positions, temperatures, strict=True)):
            descs.append(ComputeUnitDescription(
                executable="repex_replica",
                arguments=(f"--T={temp}", f"--round={round_index}"),
                name=f"replica-r{round_index}-t{r}",
                cores=1,
                cpu_seconds=cpu_seconds_per_step * steps_per_round,
                output_bytes=8.0 * steps_per_round,
                function=mc_run,
                args=(x0, temp, steps_per_round,
                      seed + round_index * 100 + r)))
        units = umgr.submit_units(descs)
        yield umgr.wait_units(units)
        failed = [u for u in units if u.state.value != "Done"]
        if failed:
            raise RuntimeError(f"{len(failed)} replicas failed")

        energies = []
        for r, unit in enumerate(units):
            samples, final_x, mean_energy = unit.result
            result.samples_by_temperature[r] = np.concatenate(
                [result.samples_by_temperature[r], samples])
            positions[r] = final_x
            energies.append(potential(final_x))

        # exchange phase: alternate even/odd adjacent pairs per round
        for i in range(round_index % 2, len(temperatures) - 1, 2):
            result.exchange_attempts += 1
            p = exchange_probability(temperatures[i], temperatures[i + 1],
                                     energies[i], energies[i + 1])
            if rng.random() < p:
                result.exchanges_accepted += 1
                positions[i], positions[i + 1] = (positions[i + 1],
                                                  positions[i])
                energies[i], energies[i + 1] = (energies[i + 1],
                                                energies[i])
        result.rounds += 1

    return result
