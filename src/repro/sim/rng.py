"""Deterministic random-number streams.

Every stochastic component of the simulator (latency sampling, fault
injection, mobility, workload generation, Monte-Carlo reliability trials)
draws from its own named stream derived from a single experiment seed.  This
keeps experiments reproducible and, importantly, keeps the streams
*independent*: adding extra latency samples does not perturb the fault
schedule of an otherwise identical run.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np


class RandomStreams:
    """A family of independent, named :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Master seed for the experiment.  Streams are spawned with
        :class:`numpy.random.SeedSequence` children keyed by the stream name,
        so the same ``(seed, name)`` pair always yields the same stream.
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The master seed this family was created with."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if not name:
            raise ValueError("stream name must be a non-empty string")
        gen = self._streams.get(name)
        if gen is None:
            # Derive a child seed deterministically from (master seed, name).
            digest = np.frombuffer(name.encode("utf-8"), dtype=np.uint8)
            child = np.random.SeedSequence(
                entropy=self._seed, spawn_key=tuple(int(b) for b in digest)
            )
            gen = np.random.default_rng(child)
            self._streams[name] = gen
        return gen

    def streams(self, names: Iterable[str]) -> Dict[str, np.random.Generator]:
        """Materialise several named streams at once."""
        return {name: self.stream(name) for name in names}

    def fork(self, salt: int) -> "RandomStreams":
        """Return a new family whose master seed mixes in ``salt``.

        Used by Monte-Carlo drivers: trial ``i`` runs with ``streams.fork(i)``
        so trials are independent yet reproducible.
        """
        mixed = (self._seed * 1_000_003 + int(salt)) % (2**63 - 1)
        return RandomStreams(mixed)

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RandomStreams(seed={self._seed}, streams={sorted(self._streams)})"
