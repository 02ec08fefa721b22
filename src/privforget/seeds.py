"""Seed-derived random streams and their purpose tags.

Every random stream in the package is built here: ``stream`` returns a
generator and ``derive`` a single integer seed, both from the entropy list
``[user_seed, PURPOSE, ...extra]``.  Distinct purposes get distinct tags so
that reusing one user seed across stages never makes two stages consume the
same underlying bit stream.
"""
from __future__ import annotations

import numpy as np

from .data import DataError

EPOCH_SHUFFLE = 0
FORGET_DRAW = 1
DP_NOISE = 2
GLOROT_INIT = 3
SISA_DEAL = 4
SISA_SHARD_INIT = 5
SISA_SLICE = 6
MIA_SUBSAMPLE = 7


def _sequence(entropy: tuple[int, ...]) -> np.random.SeedSequence:
    if any(e < 0 for e in entropy):
        raise DataError(f"seeds must be non-negative, got {list(entropy)}")
    return np.random.SeedSequence(list(entropy))


def stream(*entropy: int) -> np.random.Generator:
    """PCG64 generator seeded by the entropy list."""
    return np.random.Generator(np.random.PCG64(_sequence(entropy)))


def derive(*entropy: int) -> int:
    """One 32-bit seed drawn from the entropy list, for a nested stream."""
    return int(_sequence(entropy).generate_state(1)[0])
