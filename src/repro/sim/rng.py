"""Seeded, named random-number streams.

Every stochastic component of the simulation (scheduler jitter, daemon
startup variance, network noise) draws from its own named stream derived
from a single root seed, so adding a new consumer never perturbs the
draws of existing ones — the standard trick for reproducible parallel
simulations.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np


class RngStream:
    """A thin convenience wrapper over :class:`numpy.random.Generator`."""

    def __init__(self, seed: int, name: str):
        self.name = name
        self._gen = np.random.default_rng(seed)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """One uniform draw on [low, high)."""
        return float(self._gen.uniform(low, high))

    def lognormal_around(self, center: float, spread: float = 0.05) -> float:
        """A positive draw centered at ``center`` with relative ``spread``.

        Used for service-time jitter: multiplicative noise keeps values
        positive and the median at ``center``.
        """
        if center <= 0:
            return max(center, 0.0)
        return float(center * self._gen.lognormal(0.0, spread))

    def choice(self, seq):
        """Pick one element of a non-empty sequence."""
        return seq[int(self._gen.integers(0, len(seq)))]

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        self._gen.shuffle(seq)

    def state_dict(self) -> dict:
        """The underlying bit generator's state (JSON-serializable)."""
        return self._gen.bit_generator.state


class SeedSequenceRegistry:
    """Derives independent :class:`RngStream` objects from one root seed.

    Stream seeds are ``crc32(name) ^ root`` folded through NumPy's
    ``SeedSequence`` spawning-free scheme; identical (root, name) pairs
    always produce identical streams.
    """

    def __init__(self, root_seed: int = 42):
        self.root_seed = int(root_seed)
        self._streams: Dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        """Return the (cached) stream for ``name``."""
        if name not in self._streams:
            derived = (zlib.crc32(name.encode("utf-8")) ^ self.root_seed) & 0xFFFFFFFF
            self._streams[name] = RngStream(derived, name)
        return self._streams[name]

    def snapshot_state(self) -> dict:
        """Every materialized stream's exact generator state.

        Captures *position*, not just seed: a checkpoint taken mid-run
        must record how far each stream has advanced so a restored
        session draws the same remaining sequence.
        """
        return {"root_seed": self.root_seed,
                "streams": {name: stream.state_dict()
                            for name, stream in
                            sorted(self._streams.items())}}
