import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvmlab.seeds import derive_seed, derive_seeds
from reference import mix_seed

_MASTERS = [0, 1, 0xDEADBEEF, 2**32, 2**63, 2**64 - 2, 2**64 - 1]


def test_deterministic():
    assert derive_seed(123, 456) == derive_seed(123, 456)


def test_million_streams_collision_free():
    master = 0xDEADBEEF
    seeds = derive_seeds(master, np.arange(1_000_000))
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


@pytest.mark.parametrize("master", _MASTERS)
@pytest.mark.parametrize(
    "as_ids",
    [list, lambda ids: ids, np.array, lambda ids: np.array(ids, dtype=np.uint64)],
    ids=["list", "range", "int64", "uint64"],
)
def test_derive_seeds_matches_reference(master, as_ids):
    ids = range(0, 3000, 7)
    want = [mix_seed(master, i) for i in ids]
    for m in (master, np.uint64(master)):
        got = derive_seeds(m, as_ids(ids))
        assert got.dtype == np.uint64
        assert got.tolist() == want


def test_derive_seeds_takes_large_stream_ids():
    ids = [2**32 - 1, 2**32, 2**33 + 5, 2**63, 2**64 - 1]
    for master in _MASTERS:
        assert derive_seeds(master, ids).tolist() == [mix_seed(master, i) for i in ids]


@pytest.mark.parametrize("master", [-1, 2**64])
def test_derive_seeds_refuses_master_outside_64_bits(master):
    with pytest.raises(OverflowError):
        derive_seeds(master, [0])


def test_derive_seed_takes_any_integer_modulo_2_64():
    for master, stream in [(-5, 3), (2**64 + 7, 2), (np.int64(-1), np.int64(9))]:
        assert derive_seed(master, stream) == mix_seed(int(master), int(stream))


@settings(max_examples=300, deadline=None)
@given(master=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**64 - 1))
def test_derive_seeds_property(master, stream):
    want = mix_seed(master, stream)
    assert derive_seeds(master, [stream]).tolist() == [want]
    assert derive_seed(master, stream) == want
