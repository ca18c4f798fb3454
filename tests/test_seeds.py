import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvmlab.seeds import derive_seed

_WORDS = [0, 1, 0xDEADBEEF, 2**32, 2**63, 2**64 - 2, 2**64 - 1]


def test_deterministic():
    assert derive_seed(123, 456) == derive_seed(123, 456)


@pytest.mark.parametrize("master", _WORDS)
@pytest.mark.parametrize("stream", _WORDS)
def test_packs_words_into_philox_key(master, stream):
    key = derive_seed(master, stream)
    assert key == master + stream * 2**64
    words = np.random.Philox(key=key).state["state"]["key"]
    assert words.tolist() == [master, stream]


def test_edge_keys():
    assert derive_seed(0, 0) == 0
    assert derive_seed(2**64 - 1, 0) == 2**64 - 1
    assert derive_seed(0, 1) == 2**64
    assert derive_seed(2**64 - 1, 2**64 - 1) == 2**128 - 1


def test_stream_zero_is_the_master_seed():
    for master in _WORDS:
        assert derive_seed(master, 0) == master


def test_takes_numpy_integers():
    for master, stream in [(np.uint64(2**64 - 1), np.int64(9)), (np.int32(5), np.uint8(3))]:
        assert derive_seed(master, stream) == int(master) + int(stream) * 2**64


@pytest.mark.parametrize("master, stream", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64), (-5, 3)])
def test_refuses_words_outside_64_bits(master, stream):
    name = "master_seed" if not 0 <= master < 2**64 else "stream_id"
    with pytest.raises(OverflowError, match=name):
        derive_seed(master, stream)


@pytest.mark.parametrize("value", [1.0, "3", None])
def test_refuses_non_integers(value):
    with pytest.raises(TypeError):
        derive_seed(value, 0)
    with pytest.raises(TypeError):
        derive_seed(0, value)


def test_million_streams_collision_free():
    keys = {derive_seed(0xDEADBEEF, i) for i in range(1_000_000)}
    assert len(keys) == 1_000_000


@settings(max_examples=300, deadline=None)
@given(
    a=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
    b=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
)
def test_injective_and_invertible(a, b):
    key = derive_seed(*a)
    assert 0 <= key < 2**128
    assert divmod(key, 2**64)[::-1] == a
    assert (derive_seed(*b) == key) == (a == b)
