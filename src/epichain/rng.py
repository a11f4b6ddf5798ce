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
  arrays, whose arithmetic wraps mod 2^64.  A draw mixes key + (c + 1) *
  gamma for its counter c (`counter_offsets`, which a caller may table
  once; counter c + 1 adds `GAMMA` more) through the one splitmix64
  finalizer, `keyed_bits`, and `u01_from_bits` keeps the top 53 bits.

The argument checks every layer imports live here too: `check_count` on
sample counts and master seeds, `check_real` on real parameters, and
`as_real`, its type step, for entry points with their own range messages.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import reprlib

import numpy as np

_MASK = (1 << 64) - 1
GAMMA = np.uint64(0x9E3779B97F4A7C15)
_KEY_TWEAK = np.uint64(0xD1B54A32D192ED03)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 2.0 ** -53

# how every message shows a value: as `reprlib` does, but with two entries of
# a dict and no container inside another, so that a JSON object stays short
SHOWN = reprlib.Repr()
SHOWN.maxdict, SHOWN.maxlevel = 2, 1


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
        raise ValueError(f"{name} must be an integer, got {SHOWN.repr(value)}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {SHOWN.repr(int(value))}")
    return int(value)


def as_real(name: str, value, must: str = "be a real number") -> float:
    """`value` as a float; a ValueError "`name` must `must`, got `value`"
    when it is a bool, not a real number, or an int beyond the float range.
    The type step of `check_real`; an entry point with its own range message
    passes that message's `must`, so one message names both faults.  The
    message shows at most about 40 characters of `value`."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise ValueError(f"{name} must {must}, got {SHOWN.repr(value)}")


def check_real(name: str, value, *, positive: bool | None) -> float:
    """`value` as a finite float; a ValueError naming `name` when it fails
    `as_real` or is negative (or zero, when `positive`); with `positive`
    None, any finite sign passes."""
    must = ("be finite" if positive is None
            else f"be finite and {'positive' if positive else 'nonnegative'}")
    value = as_real(name, value, must)
    in_range = positive is None or (value > 0.0 if positive else value >= 0.0)
    if not (math.isfinite(value) and in_range):
        raise ValueError(f"{name} must {must}, got {value}")
    return value


def counter_offsets(counters) -> np.ndarray:
    """(c + 1) * gamma mod 2^64 for each counter c: the offset a keyed draw
    at counter c adds to its key, as a fresh uint64 array.  The dual tree
    builds its tables of these once, so that a draw costs one gather."""
    c = np.array(counters, dtype=np.uint64)
    c += np.uint64(1)
    c *= GAMMA  # in place, so a 0-d array wraps like any other, unwarned
    return c


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, bijective on 64-bit integers; mixes the caller's
    fresh uint64 array in place and returns it.  Every product is formed in
    place, where a 0-d array wraps mod 2^64 as a longer one does (a numpy
    scalar would warn of the overflow)."""
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return z


def keyed_bits(keys: np.ndarray, offsets) -> np.ndarray:
    """The 64 mixed bits of each (key, counter), given the counter's offset
    from `counter_offsets`; `u01_from_bits` turns them into the uniform."""
    z = np.add(keys, offsets, dtype=np.uint64)
    return _mix64(z if isinstance(z, np.ndarray) else np.array(z))


def u01_from_bits(bits: np.ndarray) -> np.ndarray:
    """Uniforms in [0,1) from the top 53 of the mixed bits (overwritten)."""
    bits >>= np.uint64(11)
    # below 2**53, so the signed conversion (the faster one) is exact
    u = bits.view(np.int64).astype(np.float64)
    u *= _INV_2_53
    return u


def child_keys(keys: np.ndarray, offsets) -> np.ndarray:
    """Keys of the nodes' children, given the `counter_offsets` of their
    slots."""
    return keyed_bits(np.bitwise_xor(keys, _KEY_TWEAK, dtype=np.uint64), offsets)


def root_key_vec(seed: int, indices: np.ndarray) -> np.ndarray:
    """Keys of the tree roots at positions `indices` of a run seed's stream
    (a nonnegative integer)."""
    seed = check_count("seed", seed, 0)
    base = _mix64(np.array(seed & _MASK, dtype=np.uint64))
    return keyed_bits(base, counter_offsets(indices))
