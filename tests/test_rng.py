"""Keyed randomness: stable derivation, stream independence, and keyed draws
that do not depend on which other keys share the batch (the property that
lets one tree be expanded alone or inside a chunk with the same draws)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from epichain import derive_seed, make_rng
from epichain.rng import child_key_vec, keyed_u01_vec, root_key_vec


def test_derive_seed_stable_and_tag_sensitive():
    a = derive_seed(123, "x", 1)
    assert a == derive_seed(123, "x", 1)
    assert a != derive_seed(123, "x", 2)
    assert a != derive_seed(123, "y", 1)
    assert a != derive_seed(124, "x", 1)
    assert 0 <= a < 2**64


def test_make_rng_reproducible():
    assert np.array_equal(make_rng(7, "s").random(5), make_rng(7, "s").random(5))
    assert not np.array_equal(make_rng(7, "s").random(5), make_rng(7, "t").random(5))


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20), st.integers(0, 200))
@settings(max_examples=100, deadline=None)
def test_keyed_draws_independent_of_batch(keys, counter):
    batch = np.array(keys, dtype=np.uint64)
    u = keyed_u01_vec(batch, np.uint64(counter))
    ck = child_key_vec(batch, counter)
    assert np.all((0.0 <= u) & (u < 1.0))
    for i, key in enumerate(keys):
        alone = np.array([key], dtype=np.uint64)
        assert keyed_u01_vec(alone, np.uint64(counter))[0] == u[i]
        assert child_key_vec(alone, counter)[0] == ck[i]


def test_root_keys_independent_of_batch():
    idx = np.arange(32, dtype=np.uint64)
    vec = root_key_vec(99, idx)
    assert np.unique(vec).size == 32
    # recorded values: the key stream is part of every seeded tree result
    assert int(vec[0]) == 0x39F5C1A74036C371
    assert keyed_u01_vec(vec[:1], np.uint64(3))[0].hex() == "0x1.a6f8e80a9f708p-4"
    assert int(child_key_vec(vec[:1], 2)[0]) == 0x6655C11B5A88E683
    for i in range(32):
        assert root_key_vec(99, np.array([i], dtype=np.uint64))[0] == vec[i]


def test_counter_stream_looks_uniform():
    keys = root_key_vec(5, np.arange(20_000, dtype=np.uint64))
    u = keyed_u01_vec(keys, np.uint64(3))
    assert abs(u.mean() - 0.5) < 0.01
    assert abs((u < 0.25).mean() - 0.25) < 0.01
