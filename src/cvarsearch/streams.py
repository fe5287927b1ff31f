"""Deterministic random-stream bookkeeping.

Every stochastic component in this package draws from a numpy Generator that
is derived from a root SeedSequence plus an integer key path.  Streams built
from the same (seed, key path) are bit-identical no matter in which order or
in which process they are created, which is what makes serial and parallel
runs of the same experiment agree byte for byte.

The stream schema is NumPy's own: ``substream`` returns
``SeedSequence(entropy=root.entropy, spawn_key=root.spawn_key + path)``,
and ``generator`` a ``Generator`` over NumPy's ``SFC64`` bit generator
seeded from it.  SFC64 takes about a sixth less time per normal draw than
PCG64, ``default_rng``'s choice.  Each SeedSequence-seeded SFC64 stream
starts from its own well-mixed state, and its 64-bit counter gives a cycle
of at least 2^64 draws (NumPy's SFC64 documentation).  ``generator`` is
the one place every stream is built.  The engine builds one stream per
chunk of candidates, not per candidate, so that the cost of a
construction is shared by the candidates of the chunk.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["as_seed_sequence", "substream", "generator"]


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Coerce an int or SeedSequence into a SeedSequence; a float is a
    TypeError, never truncated."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(operator.index(seed))


def substream(seq: np.random.SeedSequence, *key: int) -> np.random.SeedSequence:
    """Child sequence at an explicit key path.

    Unlike SeedSequence.spawn this is stateless: the child depends only on
    the parent's entropy, the parent's own key path, and ``key``.  A
    negative key element raises ValueError, and a float one TypeError.
    """
    return np.random.SeedSequence(entropy=seq.entropy, spawn_key=seq.spawn_key + key)


def generator(seq: np.random.SeedSequence) -> np.random.Generator:
    """NumPy's SFC64 generator seeded from ``seq``."""
    return np.random.Generator(np.random.SFC64(seq))
