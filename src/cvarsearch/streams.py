"""Deterministic random-stream bookkeeping.

Every stochastic component in this package draws from a numpy Generator that
is derived from a root SeedSequence plus an integer key path.  Streams built
from the same (seed, key path) are bit-identical no matter in which order or
in which process they are created, which is what makes serial and parallel
runs of the same experiment agree byte for byte.

The stream schema is NumPy's own: the stream at a key path is
``SeedSequence(entropy=root.entropy, spawn_key=path)``.  NumPy seeds its
pool from one assembled row of uint32 words: the entropy as little-endian
words, padded with zeros to the pool size of 4 words when the key path is
non-empty, followed by the words of each key element.  ``substream``
assembles that row itself and hands it over as the entropy of a key-less
SeedSequence, which NumPy mixes into the identical pool, so the state and
every draw are the same.  The child carries its row, and a nested call
only appends to it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_seed_sequence", "substream", "generator"]

# NumPy's default SeedSequence pool size, in uint32 words
_POOL_WORDS = 4
_WORD_MASK = 0xFFFFFFFF


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Coerce an int or SeedSequence into a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(int(seed))


def _int_words(n: int) -> list[int]:
    # little-endian uint32 words of a non-negative int; 0 is one word
    if n < 0:
        raise ValueError(f"expected non-negative integer, got {n}")
    words = [n & _WORD_MASK]
    n >>= 32
    while n:
        words.append(n & _WORD_MASK)
        n >>= 32
    return words


def _words(value) -> list[int]:
    # NumPy's coercion of entropy or a key path into uint32 words: a uint32
    # array as is, an int by _int_words, any other sequence element by
    # element.  Every SeedSequence has passed this coercion when it was
    # built, so no other input reaches here.
    if isinstance(value, np.ndarray) and value.dtype == np.uint32:
        return value.tolist()
    if isinstance(value, (int, np.integer)):
        return _int_words(int(value))
    return [w for v in value for w in _words(v)]


def substream(seq: np.random.SeedSequence, *key: int) -> np.random.SeedSequence:
    """Child sequence at an explicit key path.

    Unlike SeedSequence.spawn this is stateless: the child depends only on
    the parent's entropy, the parent's own key path, and ``key``.  It
    equals ``SeedSequence(entropy=seq.entropy, spawn_key=seq.spawn_key +
    key)`` in pool, state and draws; a negative key element raises
    ValueError, as NumPy does.
    """
    words = _words(seq.entropy)
    path = _words(seq.spawn_key) if seq.spawn_key else []
    for k in key:
        path += _int_words(int(k))
    if path and len(words) < _POOL_WORDS:
        words += [0] * (_POOL_WORDS - len(words))
    return np.random.SeedSequence(entropy=np.array(words + path, dtype=np.uint32))


def generator(seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.default_rng(seq)
