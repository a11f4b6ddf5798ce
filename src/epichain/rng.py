"""Deterministic random-number plumbing.

Two layers:

* `derive_seed` / `make_rng`: counter-style splitting of a master seed into
  independent child streams, keyed by arbitrary string/int tags (module name,
  replica index, ...).  Hash-based, so the derived seed depends only on the
  tag values, never on call order.
* splitmix64 keyed uniforms: a stateless map (key, counter) -> U(0,1) used by
  the branching-tree sampler, where every tree node owns a key and the node's
  randomness must be reproducible regardless of traversal order or of how
  many trees are expanded together.  The helpers act elementwise on uint64
  arrays, whose arithmetic wraps mod 2^64.

`check_count` is the one check on the number of samples, chains or
individuals a sampler is asked for, and on the master seed of every stream.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_KEY_TWEAK = np.uint64(0xD1B54A32D192ED03)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 2.0 ** -53


def derive_seed(master_seed: int, *tags: object) -> int:
    """Derive a 64-bit child seed from a master seed and a tag tuple.

    Stable across processes and platforms (SHA-256 based).  The master seed
    must be a nonnegative integer.
    """
    h = hashlib.sha256()
    h.update(str(check_count("seed", master_seed, 0)).encode())
    for tag in tags:
        h.update(b"\x1f")
        h.update(repr(tag).encode())
    return int.from_bytes(h.digest()[:8], "little")


def make_rng(master_seed: int, *tags: object) -> np.random.Generator:
    """A numpy Generator seeded from (master_seed, *tags)."""
    return np.random.default_rng(derive_seed(master_seed, *tags))


def check_count(name: str, value, minimum: int) -> int:
    """`value` as an int; a ValueError naming `name` when it is not an
    integer, is a bool, or lies below `minimum`.  Every sampler checks its
    sample counts with it, and every stream its master seed."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, bijective on 64-bit integers; mixes the caller's
    fresh uint64 array in place and returns it.  Callers silence the overflow
    warnings of 0-d input (`np.errstate(over="ignore")`)."""
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return z


def keyed_u01_vec(keys: np.ndarray, counters) -> np.ndarray:
    """Uniforms in [0,1) determined by (key, counter). 53-bit resolution."""
    with np.errstate(over="ignore"):
        c = (np.asarray(counters, dtype=np.uint64) + np.uint64(1)) * _GAMMA
        bits = _mix64(np.asarray(keys, dtype=np.uint64) + c)
    bits >>= np.uint64(11)
    # below 2**53, so the signed conversion (the faster one) is exact
    u = bits.view(np.int64).astype(np.float64)
    u *= _INV_2_53
    return u


def child_key_vec(keys: np.ndarray, slots) -> np.ndarray:
    """Keys of the nodes' slot-th children (slots 0-based)."""
    with np.errstate(over="ignore"):
        s = (np.asarray(slots, dtype=np.uint64) + np.uint64(1)) * _GAMMA
        return _mix64((np.asarray(keys, dtype=np.uint64) ^ _KEY_TWEAK) + s)


def root_key_vec(seed: int, indices: np.ndarray) -> np.ndarray:
    """Keys of the tree roots at positions `indices` of a run seed's stream
    (a nonnegative integer)."""
    seed = check_count("seed", seed, 0)
    with np.errstate(over="ignore"):
        base = _mix64(np.array(seed & _MASK, dtype=np.uint64))
        s = (np.asarray(indices, dtype=np.uint64) + np.uint64(1)) * _GAMMA
        return _mix64(base + s)
