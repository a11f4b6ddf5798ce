"""Keyed randomness: stable derivation, stream independence, keyed draws
that do not depend on which other keys share the batch (the property that
lets one tree be expanded alone or inside a chunk with the same draws), and
the one check on the sample counts every sampler is given."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epichain import (
    conditioned_first_step, derive_seed, estimate_B, make_rng,
    martingale_diagnostic, sample_h_chains, sample_renewal_chains,
    simulate, survival_representation_check, tree_params,
)
from epichain.backward_chain import reweighted_first_steps
from epichain.rng import child_key_vec, keyed_u01_vec, root_key_vec
from helpers import empirical_tau


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


@pytest.fixture(scope="module")
def samplers(model, kernel, ic, unit_contact, sol):
    """Each sampler as (name of its count argument, call with that count)."""
    params = tree_params(kernel, ic, unit_contact, horizon=8.0)
    return {
        "simulate": ("n_individuals",
                     lambda n: simulate(model, n, unit_contact, ic, 5.0, seed=1)),
        "sample_renewal_chains": ("n_chains",
                                  lambda n: sample_renewal_chains(3.0, kernel, n, seed=1)),
        "sample_h_chains": ("n_chains", lambda n: sample_h_chains(3.0, sol, n, seed=1)),
        "martingale_diagnostic": ("n_samples",
                                  lambda n: martingale_diagnostic(3.0, sol, n, 3, seed=1)),
        "martingale_diagnostic.k_max": ("k_max",
                                        lambda n: martingale_diagnostic(3.0, sol, 100, n, seed=1)),
        "survival_representation_check": (
            "n_samples", lambda n: survival_representation_check(3.0, sol, n, seed=1)),
        "reweighted_first_steps": ("n_samples",
                                   lambda n: reweighted_first_steps(3.0, sol, n, seed=1)),
        "estimate_B": ("n_samples", lambda n: estimate_B(params, [2.0], n, seed=1)),
        "conditioned_first_step": ("n_samples",
                                   lambda n: conditioned_first_step(params, 4.0, 0.5, n, seed=1)),
        "empirical_tau": ("n", lambda n: empirical_tau(model, n, make_rng(1, "empirical-tau"))),
    }


@pytest.mark.parametrize("entry", [
    "simulate", "sample_renewal_chains", "sample_h_chains", "martingale_diagnostic",
    "martingale_diagnostic.k_max", "survival_representation_check", "reweighted_first_steps",
    "estimate_B", "conditioned_first_step", "empirical_tau",
])
@pytest.mark.parametrize("count", [100.0, np.float64(2000.0), True, 0, -1],
                         ids=["float", "numpy-float", "bool", "zero", "negative"])
def test_sample_counts_checked_by_every_sampler(samplers, entry, count):
    name, call = samplers[entry]
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call(count)


@pytest.fixture(scope="module")
def seeded(kernel, ic, unit_contact, sol):
    """Each entry that takes a master seed, called with a given seed."""
    params = tree_params(kernel, ic, unit_contact, horizon=8.0)
    return {
        "derive_seed": lambda seed: derive_seed(seed, "x"),
        "estimate_B": lambda seed: estimate_B(params, [2.0], 1_000, seed=seed),
        "sample_h_chains": lambda seed: sample_h_chains(3.0, sol, 10, seed=seed),
    }


@pytest.mark.parametrize("entry", ["derive_seed", "estimate_B", "sample_h_chains"])
@pytest.mark.parametrize("seed", [1.5, np.float64(2.0), True, -1, "7"],
                         ids=["float", "numpy-float", "bool", "negative", "str"])
def test_seed_checked_by_every_stream(seeded, entry, seed):
    # a non-integer seed must not quietly act as seed int(seed)
    with pytest.raises(ValueError, match="^seed must be "):
        seeded[entry](seed)


def test_numpy_integer_seed_is_the_same_stream():
    assert derive_seed(np.int64(123), "x", 1) == derive_seed(123, "x", 1)
    indices = np.arange(5, dtype=np.uint64)
    assert np.array_equal(root_key_vec(np.uint64(123), indices), root_key_vec(123, indices))
