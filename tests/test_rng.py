"""The batched seeding path against numpy's own: _rng.states and child_seeds
must give numpy's SeedSequence words bit for bit, and _rng.generator the
draws of _per_row.stream.  A numpy release that changed SeedSequence would fail
here before any cohort, resample or replication seed moved."""
import random

import numpy as np
import pytest

from evtv import _rng

from _per_row import child_seed, stream

DOMAINS = (_rng.COHORT_DOMAIN, _rng.BOOTSTRAP_DOMAIN, _rng.REPLICATION_DOMAIN)

# each value enters the entropy as one 32-bit word (0 included) or as two
_EDGES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1]
_DRAWN = random.Random(20150101)
SEEDS = _EDGES + [_DRAWN.getrandbits(64) for _ in range(12)] + [
    _DRAWN.getrandbits(32) for _ in range(6)]
TAGS = _EDGES + [9, 63, 64, 999] + [_DRAWN.getrandbits(64) for _ in range(4)]


def numpy_words(seed: int, domain: int, tag: int) -> np.ndarray:
    return np.random.SeedSequence((seed, domain, tag)).generate_state(4, np.uint64)


@pytest.mark.parametrize("domain", DOMAINS)
def test_states_match_seed_sequence(domain):
    words = _rng.states(SEEDS, domain, TAGS)
    assert words.shape == (len(SEEDS), len(TAGS), 4) and words.dtype == np.uint64
    for i, seed in enumerate(SEEDS):
        for j, tag in enumerate(TAGS):
            assert np.array_equal(words[i, j], numpy_words(seed, domain, tag)), (seed, tag)


def test_states_of_no_tags_or_seeds_are_empty():
    assert _rng.states([5], 1, np.arange(0)).shape == (1, 0, 4)
    assert _rng.states([], 1, [3]).shape == (0, 1, 4)


@pytest.mark.parametrize("domain", DOMAINS)
def test_child_seeds_match_child_seed(domain):
    for seed in SEEDS[:8]:
        got = _rng.child_seeds(seed, domain, TAGS)
        assert got.dtype == np.uint64
        assert [int(v) for v in got] == [child_seed(seed, domain, i) for i in TAGS]


@pytest.mark.parametrize("seed, domain, tag", [
    (0, 0, 0), (2**32 - 1, 1, 2**32), (2**32, 2, 7), (2**64 - 1, 1, 2**64 - 1),
    (SEEDS[-1], 0, 9), (SEEDS[8], 2, TAGS[-1])])
@pytest.mark.parametrize("n", [1000, 2**32 - 1, 2**32 + 5, 2**62])
def test_generator_draws_as_stream(seed, domain, tag, n):
    # random(), then integers(0, n) below and above 2**32, then random() again
    fast = _rng.generator(_rng.states([seed], domain, [tag])[0, 0])
    ref = stream(seed, domain, tag)
    for draw in (lambda g: g.random(17), lambda g: g.integers(0, n, size=33),
                 lambda g: g.integers(0, n), lambda g: g.random(5)):
        assert np.array_equal(draw(fast), draw(ref))
