"""Deterministic seed-stream derivation for parallel Monte Carlo.

A fixed 64-bit mixing permutation (the splitmix64 finalizer) applied to
master_seed + stream_id * odd-constant; distinct stream ids under one master
seed always map to distinct derived seeds.
"""
from __future__ import annotations

import operator

__all__ = ["derive_seed"]

_MASK64 = (1 << 64) - 1
_STREAM_STEP = 0x9E3779B97F4A7C15  # odd, so stream offsets stay injective


def _mix64(z: int) -> int:
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def derive_seed(master_seed: int, stream_id: int) -> int:
    """Derived 64-bit seed for one stream; collision-free across stream ids.

    Any integer type is accepted: both arguments are taken as Python ints, so
    NumPy integers cannot overflow in the stream offset.
    """
    master_seed, stream_id = operator.index(master_seed), operator.index(stream_id)
    return _mix64((master_seed + stream_id * _STREAM_STEP) & _MASK64)

