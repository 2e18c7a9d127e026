"""Deterministic, cross-process-stable hash kernels.

Python's builtin ``hash`` is salted per process, so it must never be
used for routing or dedup across Ray workers. Everything here is
stable across processes and runs:

- ``stable_hash64``: blake2b-based 64-bit hash of bytes/str (shard
  routing, URL-seen keys, content fingerprints).
- ``crc32_shard``: cheap shard router for small K.
- ``minhash_permutations``: the (a, b) multiplier/offset arrays for
  universal-hash MinHash, seeded.

Vectorised variants operate on numpy object arrays of str and return
uint64 arrays.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np

_MERSENNE61 = (1 << 61) - 1


def stable_hash64(value: bytes | str) -> int:
    """64-bit stable hash (blake2b digest_size=8, big-endian)."""
    if isinstance(value, str):
        value = value.encode("utf-8")
    return int.from_bytes(hashlib.blake2b(value, digest_size=8).digest(), "big")


def stable_hash64_array(values) -> np.ndarray:
    """Vector form over an iterable of str/bytes → uint64 ndarray."""
    out = np.empty(len(values), dtype=np.uint64)
    h = hashlib.blake2b
    for i, v in enumerate(values):
        if isinstance(v, str):
            v = v.encode("utf-8")
        out[i] = int.from_bytes(h(v, digest_size=8).digest(), "big")
    return out


def crc32_shard(value: bytes | str, num_shards: int) -> int:
    """Cheap, stable shard id in [0, num_shards)."""
    if isinstance(value, str):
        value = value.encode("utf-8")
    return zlib.crc32(value) % num_shards


def key_hash(context: str, element_id: int) -> int:
    """Stable 64-bit hash of the canonical crawl key ``(context, id)``.

    The reference's primary key is ``(id, context)``
    (``database/init/dfg-gepris.sql:31``); this is its hashed form for
    seen-filters and shard routing.
    """
    return stable_hash64(f"{context}/{element_id}")


def splitmix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 avalanche finalizer — a bijective uint64 scrambler
    (wraparound intended; every step is invertible)."""
    z = z.copy()
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def minhash_permutations(num_perm: int, seed: int = 42) -> np.ndarray:
    """Per-permutation XOR seeds for scrambler MinHash:
    ``h_i(x) = splitmix64(x ^ seed_i)``.

    The textbook affine family ``(a*x+b) mod p`` needs 128-bit products
    to stay a permutation; in uint64 either the multiply wraps mod 2^64
    (voiding universality) or, with operands shrunk to fit, the map
    becomes near-monotonic and the min-estimator collapses (measured
    4x bias both ways). A seeded bijective scrambler is order-free,
    overflow-safe, and measured unbiased."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 63, size=num_perm, dtype=np.uint64)


MERSENNE61 = _MERSENNE61
