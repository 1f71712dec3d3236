"""Named, reproducible random-number substreams.

Experiments in the benchmark harness must be reproducible run-to-run and
independent across concerns: the stream that draws task runtimes must not be
perturbed by how many faults were injected, or the comparison between two
schedulers silently de-synchronizes.  :class:`RngStreams` derives one
independent :class:`numpy.random.Generator` per *name* from a single master
seed using ``numpy.random.SeedSequence`` spawning, so

* the same (seed, name) pair always yields the same stream, and
* distinct names yield statistically independent streams.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np


class RngStreams:
    """A factory of independent named random generators.

    Example::

        rng = RngStreams(seed=42)
        runtimes = rng.stream("task-runtimes")
        faults = rng.stream("fault-arrivals")
        runtimes.normal(10, 2)     # unaffected by draws from `faults`
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The master seed all substreams derive from."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator object,
        so sequential draws continue the stream rather than restarting it.
        """
        if name not in self._streams:
            # Hash the name into entropy so that the mapping name->stream is
            # stable regardless of creation order.
            name_entropy = [ord(c) for c in name]
            seq = np.random.SeedSequence([self._seed] + name_entropy)
            self._streams[name] = np.random.Generator(np.random.PCG64(seq))
        return self._streams[name]

    def fresh(self, name: str) -> np.random.Generator:
        """Return a *restarted* generator for ``name`` (position reset)."""
        self._streams.pop(name, None)
        return self.stream(name)

    def names(self) -> List[str]:
        """Names of all streams created so far, in creation order."""
        return list(self._streams)

    def spawn(self, index: int) -> "RngStreams":
        """Derive an independent child RngStreams (e.g. one per repetition)."""
        child_seed = int(
            np.random.SeedSequence([self._seed, int(index)]).generate_state(1)[0]
        )
        return RngStreams(child_seed)
