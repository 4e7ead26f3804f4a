"""Seed-stream policy shared by the simulation and bootstrap machinery.

Every random draw in the package comes from a stream addressed by
(seed, domain, tag).  Domains separate the major consumers so the same
user-facing seed can drive cohort generation, bootstrap resampling, and
replication experiments without overlap.  Tags address independent
streams inside a domain (one per simulated variable, one per bootstrap
replicate, one per replication).  Subject i always consumes draw i of a
variable stream, so adding a new variable or growing the cohort never
perturbs draws that already existed.
"""
from __future__ import annotations

import numpy as np

COHORT_DOMAIN = 0
BOOTSTRAP_DOMAIN = 1
REPLICATION_DOMAIN = 2

_SEED_MAX = 2**64


def check_seed(seed: int) -> int:
    """Validate a user-facing seed and return it as a plain int."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    seed = int(seed)
    if not 0 <= seed < _SEED_MAX:
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return seed


def stream(seed: int, domain: int, tag: int) -> np.random.Generator:
    """Return the generator addressed by (seed, domain, tag): default_rng's
    PCG64 generator, built directly, which skips default_rng's argument
    dispatch and gives the same draws."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, domain, tag))))


def child_seed(seed: int, domain: int, index: int) -> int:
    """Derive an independent 64-bit seed, e.g. one per replication."""
    state = np.random.SeedSequence((seed, domain, index)).generate_state(1, np.uint64)
    return int(state[0])
