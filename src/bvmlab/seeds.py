"""Deterministic seed-stream derivation for parallel Monte Carlo.

A fixed 64-bit mixing permutation (the splitmix64 finalizer) applied to
master_seed + stream_id * odd-constant; distinct stream ids under one master
seed always map to distinct derived seeds.  ``derive_seeds`` mixes a whole
array of stream ids at once in uint64 arithmetic, which wraps modulo 2**64.
"""
from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

__all__ = ["derive_seed", "derive_seeds"]

_MASK64 = (1 << 64) - 1
_STREAM_STEP = 0x9E3779B97F4A7C15  # odd, so stream offsets stay injective


def derive_seeds(master_seed: int, stream_ids: Sequence[int]) -> np.ndarray:
    """Derived 64-bit seeds, one per stream id, as a uint64 array.

    ``master_seed`` must lie in 0..2**64 - 1 (``OverflowError`` otherwise);
    stream ids are taken as uint64.
    """
    ids = np.asarray(stream_ids, dtype=np.uint64)
    z = np.uint64(operator.index(master_seed)) + ids * _STREAM_STEP
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def derive_seed(master_seed: int, stream_id: int) -> int:
    """Derived 64-bit seed for one stream; collision-free across stream ids.

    Any integer type is accepted, and both arguments are taken modulo 2**64.
    """
    master_seed, stream_id = operator.index(master_seed), operator.index(stream_id)
    return int(derive_seeds(master_seed & _MASK64, [stream_id & _MASK64])[0])
