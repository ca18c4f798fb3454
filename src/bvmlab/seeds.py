"""Deterministic stream keys for parallel Monte Carlo.

Every random stream of a run is keyed by the pair (master_seed, stream_id) of
64-bit words, packed into the one integer master_seed + stream_id * 2**64.
That integer is the 128-bit key of NumPy's Philox generator with the words
[master_seed, stream_id], which draws replicate noise
(``posterior.noise_draw``), and a seed that ``numpy.random.default_rng``
takes for bulk draws.  Distinct pairs give distinct keys, with no mixing.
"""
from __future__ import annotations

import operator

__all__ = ["derive_seed"]

_WORD = 1 << 64


def derive_seed(master_seed: int, stream_id: int) -> int:
    """The key master_seed + stream_id * 2**64 of one stream.

    Both words must lie in 0..2**64 - 1 (``OverflowError`` otherwise), so the
    key lies in 0..2**128 - 1 and no two pairs share one.
    """
    words = operator.index(master_seed), operator.index(stream_id)
    for name, word in zip(("master_seed", "stream_id"), words):
        if not 0 <= word < _WORD:
            raise OverflowError(f"{name} must lie in 0..2**64 - 1, got {word}")
    return words[0] + words[1] * _WORD
