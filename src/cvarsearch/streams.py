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

``candidate_generators`` builds the per-candidate streams of one key
prefix in one batch, with NumPy's seeding arithmetic written out: the
SeedSequence hash of the shared row prefix once, in Python ints; the hash
of each candidate's index words and the 4-word uint64 state, for all
candidates at once, in integer arrays; PCG64's set-seed step in 128-bit
Python ints; and the result assigned to the state of one PCG64.  Every
stream it yields is bit-identical to NumPy's own construction of the same
key path, in state and in every draw.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["as_seed_sequence", "substream", "generator", "candidate_generators"]

# NumPy's default SeedSequence pool size, in uint32 words
_POOL_WORDS = 4
_WORD_MASK = 0xFFFFFFFF

# NumPy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_128 = (1 << 128) - 1


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Coerce an int or SeedSequence into a SeedSequence; a float is a
    TypeError, never truncated."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(operator.index(seed))


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


def _row(seq: np.random.SeedSequence, key, keyed: bool) -> list[int]:
    # NumPy's assembled entropy row of seq extended by key; the entropy is
    # padded to the pool size when the path is non-empty, or when keyed
    # says that more key words follow
    words = _words(seq.entropy)
    path = _words(seq.spawn_key) if seq.spawn_key else []
    for k in key:
        path += _int_words(operator.index(k))
    if (path or keyed) and len(words) < _POOL_WORDS:
        words += [0] * (_POOL_WORDS - len(words))
    return words + path


def substream(seq: np.random.SeedSequence, *key: int) -> np.random.SeedSequence:
    """Child sequence at an explicit key path.

    Unlike SeedSequence.spawn this is stateless: the child depends only on
    the parent's entropy, the parent's own key path, and ``key``.  It
    equals ``SeedSequence(entropy=seq.entropy, spawn_key=seq.spawn_key +
    key)`` in pool, state and draws; a negative key element raises
    ValueError, as NumPy does.
    """
    row = _row(seq, key, keyed=False)
    return np.random.SeedSequence(entropy=np.array(row, dtype=np.uint32))


def generator(seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.default_rng(seq)


# The hash steps below take a Python int or a uint64 array of words below
# 2**32, so the same code hashes the shared prefix and the batch.

def _hashmix(value, h: int, mult: int):
    # one SeedSequence hash step: the hashed word and the next hash constant
    h_next = h * mult & _WORD_MASK
    value = (value ^ h) * h_next & _WORD_MASK
    return value ^ value >> _XSHIFT, h_next


def _mix(x, y):
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _WORD_MASK
    return value ^ value >> _XSHIFT


def _absorb(pool: list, h: int, words) -> int:
    # mix each word past the pool size into every pool word, in place;
    # returns the next hash constant
    for word in words:
        for dst in range(_POOL_WORDS):
            hashed, h = _hashmix(word, h, _MULT_A)
            pool[dst] = _mix(pool[dst], hashed)
    return h


def _prefix_pool(row: list[int]) -> tuple[list[int], int]:
    # SeedSequence.mix_entropy over a row of at least _POOL_WORDS words:
    # the pool and the hash constant the next word continues from
    h = _INIT_A
    pool = []
    for word in row[:_POOL_WORDS]:
        hashed, h = _hashmix(word, h, _MULT_A)
        pool.append(hashed)
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                hashed, h = _hashmix(pool[src], h, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    return pool, _absorb(pool, h, row[_POOL_WORDS:])


def _pcg_seeds(pool: list, h: int, words) -> tuple:
    # the pool after words are absorbed, through SeedSequence.generate_state(4,
    # uint64), as the four uint64 words PCG64 reads: word j is state32[2j] |
    # state32[2j + 1] << 32, the seed is words 0 and 1, the increment 2 and 3
    pool = list(pool)
    _absorb(pool, h, words)
    h = _INIT_B
    state32 = []
    for i in range(2 * _POOL_WORDS):
        hashed, h = _hashmix(pool[i % _POOL_WORDS], h, _MULT_B)
        state32.append(hashed)
    return tuple(state32[2 * j] | state32[2 * j + 1] << 32 for j in range(4))


class _Unseeded(ISeedSequence):
    """Seed source of a PCG64 whose state is always assigned: construction
    skips the SeedSequence hash, and the generator refuses to spawn."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


def candidate_generators(seq: np.random.SeedSequence, key, first: int, count: int):
    """Iterator over the streams ``generator(substream(seq, *key, first + i))``
    for i in range(count), bit-identical in state and draws.

    Every item is the same Generator, its PCG64 state reset to the next
    candidate's, so a stream is valid until the next item is taken; it
    cannot spawn.  A negative ``first`` or key element raises ValueError,
    and a float one TypeError, as ``substream`` does.
    """
    first, count = operator.index(first), operator.index(count)
    if first < 0 or count < 0:
        raise ValueError(f"first and count must be >= 0, got {first} and {count}")
    pool, h = _prefix_pool(_row(seq, key, keyed=True))
    return _reset_each(pool, h, first, count)


def _reset_each(pool: list[int], h: int, first: int, count: int):
    bit_gen = np.random.PCG64(_Unseeded())
    rng = np.random.Generator(bit_gen)
    start, stop = first, first + count
    while start < stop:
        # the indices below the next multiple of 2**32 share their high
        # words; their low words are hashed as one array
        end = min(stop, (start >> 32) + 1 << 32)
        high = _int_words(start >> 32) if start >> 32 else []
        lows = np.arange(start & _WORD_MASK, (end - 1 & _WORD_MASK) + 1, dtype=np.uint64)
        words = _pcg_seeds(pool, h, [lows] + high)
        for s_hi, s_lo, i_hi, i_lo in zip(*(w.tolist() for w in words)):
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK_128
            state = ((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _MASK_128
            bit_gen.state = {"bit_generator": "PCG64",
                             "state": {"state": state, "inc": inc},
                             "has_uint32": 0, "uinteger": 0}
            yield rng
        start = end
