"""Deterministic hashing for LFTA hash tables.

Two independent concerns are served:

* **Group identity** — :func:`pack_tuples` maps attribute-value tuples to
  collision-free 64-bit codes (mixed-radix packing over factorized columns).
  Used by the HFTA's fold and the statistics helpers for exact grouping.
* **Bucket placement** — :func:`bucket_indices` (vectorized) and
  :func:`bucket_of_values` (scalar, the record-at-a-time reference's)
  hash the raw attribute *values* through a salted splitmix64 chain
  (:func:`combine_columns`) and reduce modulo the table size. Both
  produce identical bucket choices, and the native library's
  ``hash_block`` replicates the chain op for op, which is what makes
  the sequential reference and the engine bit-comparable.

The paper assumes "the hash function randomly hashes the data"; splitmix64
is an excellent cheap approximation of that ideal.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

__all__ = [
    "splitmix64",
    "bucket_indices",
    "bucket_of_values",
    "combine_columns",
    "pack_tuples",
    "relation_salt",
]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)

_MASK_INT = 0xFFFFFFFFFFFFFFFF
_GOLDEN_INT = 0x9E3779B97F4A7C15
_MIX1_INT = 0xBF58476D1CE4E5B9
_MIX2_INT = 0x94D049BB133111EB


def splitmix64(x: np.ndarray | int) -> np.ndarray | np.uint64:
    """The splitmix64 finalizer: a high-quality 64-bit mixing function."""
    z = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z + _GOLDEN) & _MASK
        z = ((z ^ (z >> np.uint64(30))) * _MIX1) & _MASK
        z = ((z ^ (z >> np.uint64(27))) * _MIX2) & _MASK
        z = z ^ (z >> np.uint64(31))
    if np.isscalar(x) or z.ndim == 0:
        return np.uint64(z)
    return z


def combine_columns(columns: Sequence[np.ndarray],
                    salt: int = 0) -> np.ndarray:
    """Salted 64-bit hash of attribute-value tuples, stable across calls.

    Unlike :func:`pack_tuples` (whose codes are only meaningful within one
    call, being factorized), equal tuples map to equal hashes in *any*
    call — the property streaming sketches need. Distinct tuples collide
    with probability ~2^-64 per pair, negligible for estimation.
    """
    return _chain(columns, salt)


def _chain(columns: Sequence[np.ndarray], salt: int) -> np.ndarray:
    """``h(c1)``, then ``splitmix64(acc ^ h(c))`` for each further column
    ``c``, with ``h(c) = splitmix64(c ^ splitmix64(salt))`` the
    per-column step. The native library's ``hash_block``
    (:data:`repro.native.library.SOURCE`) is the same chain, computed
    column by column over a block of rows."""
    state = splitmix64(np.uint64(salt & 0xFFFFFFFFFFFFFFFF))
    acc = None
    for col in columns:
        h = splitmix64(np.asarray(col).astype(np.uint64) ^ state)
        acc = h if acc is None else splitmix64(acc ^ h)
    if acc is None:
        raise ValueError("need at least one column to hash")
    return acc


def bucket_indices(columns: Sequence[np.ndarray], salt: int,
                   buckets: int) -> np.ndarray:
    """Vectorized bucket placement for value columns."""
    if buckets <= 0:
        raise ValueError("buckets must be positive")
    return (_chain(columns, salt) % np.uint64(buckets)).astype(np.int64)


def _splitmix64_int(z: int) -> int:
    """splitmix64 on plain Python ints (already reduced mod 2**64)."""
    z = (z + _GOLDEN_INT) & _MASK_INT
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _MASK_INT
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _MASK_INT
    return z ^ (z >> 31)


def bucket_of_values(values: Sequence[int], salt: int, buckets: int) -> int:
    """Scalar bucket placement, identical to :func:`bucket_indices`.

    Implemented on plain Python ints — no per-call ndarray allocation —
    so the sequential reference's inner loop stays cheap. ``int(v) &
    MASK`` reproduces numpy's two's-complement wrap of negative values;
    bit-identity with the vectorized chain is asserted by tests.
    """
    if buckets <= 0:
        raise ValueError("buckets must be positive")
    state = _splitmix64_int(salt & _MASK_INT)
    acc: int | None = None
    for v in values:
        col = int(v) & _MASK_INT
        if acc is None:
            acc = _splitmix64_int(col ^ state)
        else:
            acc = _splitmix64_int(acc ^ _splitmix64_int(col ^ state))
    if acc is None:
        raise ValueError("need at least one value to hash")
    return acc % buckets


def pack_tuples(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Collision-free 64-bit group codes for attribute-value tuples.

    Each column is factorized to dense codes; codes are combined by
    mixed-radix packing. Whenever the radix product would approach 2**63
    the partial key is re-factorized, so arbitrary column counts are safe.
    Equal tuples always receive equal codes and distinct tuples distinct
    codes (within one call).
    """
    if not columns:
        raise ValueError("need at least one column to pack")
    key = None
    radix = 1
    limit = 1 << 62
    for col in columns:
        codes, card = _factorize(np.asarray(col))
        if key is None:
            key, radix = codes, card
            continue
        if radix * card >= limit:
            key, radix = _factorize(key)
        key = key * np.int64(card) + codes
        radix = radix * card
        if radix >= limit:
            key, radix = _factorize(key)
    assert key is not None
    return key.astype(np.uint64)


def _factorize(arr: np.ndarray) -> tuple[np.ndarray, int]:
    uniques, inverse = np.unique(arr, return_inverse=True)
    return inverse.astype(np.int64), int(uniques.size)


@functools.lru_cache(maxsize=4096)
def relation_salt(label: str, seed: int = 0) -> int:
    """A stable per-relation salt derived from its label and a seed.

    Python's builtin ``hash`` is randomized per process, so we fold the
    label bytes through splitmix64 instead (on plain ints: the same
    arithmetic as :func:`splitmix64`, without a numpy scalar per byte).
    Memoised per ``(label, seed)``: every bind of a configuration asks
    again for the salts of relations it has seen (``__wrapped__`` is the
    uncached fold).
    """
    acc = seed & _MASK_INT
    for byte in label.encode("utf-8"):
        acc = _splitmix64_int(acc ^ byte)
    return acc
