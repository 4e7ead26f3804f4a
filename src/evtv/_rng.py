"""Seed-stream policy shared by the simulation and bootstrap machinery.

Every random draw in the package comes from a stream addressed by
(seed, domain, tag).  Domains separate the major consumers so the same
user-facing seed can drive cohort generation, bootstrap resampling, and
replication experiments without overlap.  Tags address independent
streams inside a domain (one per simulated variable, one per bootstrap
replicate, one per replication).  Subject i always consumes draw i of a
variable stream, so adding a new variable or growing the cohort never
perturbs draws that already existed.

A stream is numpy's PCG64 seeded by np.random.SeedSequence((seed, domain,
tag)), and a child seed the first word that sequence generates.  Both are
built from `states`, which hashes the SeedSequence entropy of every (seed,
domain, tag) in one numpy pass: `generator` seeds PCG64 from a row of its
words, and `child_seeds` reads the rows' first words.  tests/_per_row.py
keeps numpy's own SeedSequence path as the reference they must match.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import check_integer

COHORT_DOMAIN = 0
BOOTSTRAP_DOMAIN = 1
REPLICATION_DOMAIN = 2

_SEED_MAX = 2**64


def check_seed(seed: int) -> int:
    """Validate a user-facing seed and return it as a plain int."""
    seed = check_integer(seed, "seed")
    if not 0 <= seed < _SEED_MAX:
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return seed


# numpy's SeedSequence hash (O'Neill's seed_seq_fe, randutils 2015) on a pool of
# four 32-bit words, each held in uint64 so that a product of two never wraps and
# masking keeps its low 32 bits; the constants evolve apart from the data, so they
# stay ints
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _pool_states(entropy: list) -> np.ndarray:
    # SeedSequence's mix_entropy, then generate_state(4, np.uint64)'s eight
    # words, paired into four along a new last axis; entropy is a list of
    # uint64 arrays of 32-bit words that broadcast together
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R & _MASK32
        return result ^ (result >> 16)

    zero = np.zeros((1, 1), dtype=np.uint64)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    words, hash_const = [], _INIT_B
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ (value >> 16))
    return np.stack([lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])], axis=-1)


def _by_width(values: np.ndarray):
    # (indices, words) of the values that enter the entropy as one 32-bit word
    # (0 too), then of those that enter as two, little-endian; words are split
    # arithmetically, so the result does not depend on the byte order
    two = values >= 1 << 32
    for width, picked in ((1, ~two), (2, two)):
        at = np.flatnonzero(picked)
        if at.size:
            v = values[at]
            yield at, [v >> 32 * k & _MASK32 for k in range(width)]


def states(seeds, domain: int, tags) -> np.ndarray:
    """(len(seeds), len(tags), 4) uint64 array whose [i, j] row is
    np.random.SeedSequence((seeds[i], domain, tags[j])).generate_state(4, np.uint64),
    the words PCG64 seeds the stream (seeds[i], domain, tags[j]) from.  Seeds and
    tags are ints below 2**64; pairs whose entropy has one length hash together."""
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    tags = np.asarray(tags, dtype=np.uint64).reshape(-1)
    out = np.empty((seeds.size, tags.size, 4), dtype=np.uint64)
    if not out.size:
        return out
    middle = [np.full((1, 1), domain, dtype=np.uint64)]
    for rows, seed_words in _by_width(seeds):
        for cols, tag_words in _by_width(tags):
            entropy = [w[:, None] for w in seed_words] + middle + [w[None, :] for w in tag_words]
            out[np.ix_(rows, cols)] = _pool_states(entropy)
    return out


def child_seeds(seed: int, domain: int, indices) -> np.ndarray:
    """uint64 array of the child seed (seed, domain, i) for each i in indices:
    word 0 of its `states` row."""
    return states([seed], domain, indices)[0, :, 0]


def generator(words: np.ndarray) -> np.random.Generator:
    """The generator of a stream, from its (4,) uint64 row of `states`: PCG64
    seeds itself from the words in C, as it would from the SeedSequence."""
    return np.random.Generator(np.random.PCG64(_words_type()(words)))


@functools.cache
def _words_type():
    # a seed sequence that hands PCG64 precomputed words; made on first use,
    # since numpy.random loads only when something draws
    class _Words(np.random.bit_generator.ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return _Words
