import numpy as np

from bvmlab.seeds import derive_seed


def test_deterministic():
    assert derive_seed(123, 456) == derive_seed(123, 456)


def test_million_streams_collision_free():
    master = 0xDEADBEEF
    seeds = np.fromiter(
        (derive_seed(master, s) for s in range(1_000_000)), dtype=np.uint64
    )
    assert np.unique(seeds).size == seeds.size


def test_master_seed_avalanche():
    rng = np.random.default_rng(0)
    streams = rng.integers(0, 2**62, size=1000)
    for s in streams:
        a = derive_seed(1, int(s))
        b = derive_seed(2, int(s))
        assert a != b


def test_output_is_64_bit():
    for master, stream in [(0, 0), (2**63, 2**62), (-5, 3)]:
        out = derive_seed(master, stream)
        assert 0 <= out < 2**64
