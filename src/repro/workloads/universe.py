"""Group universes: the distinct attribute tuples a workload draws from.

The paper's real trace has 2837 distinct 4-attribute groups, with nested
projections of 552 (1 attribute), 1846 (2), and 2117 (3) groups. The
builder here reproduces such a *prefix chain* of projection counts exactly:
level ``j`` creates ``chain[j]`` distinct ``j``-tuples, each extending a
level-``j-1`` tuple, with every shorter tuple covered. Non-prefix
projections (e.g. ``BD``) then fall out of the construction with plausible
intermediate counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.gigascope.records import StreamSchema

__all__ = ["GroupUniverse", "make_group_universe", "PAPER_CHAIN"]

#: The paper's reported projection-count chain for the tcpdump trace.
PAPER_CHAIN = (552, 1846, 2117, 2837)


@dataclass(frozen=True)
class GroupUniverse:
    """A fixed set of distinct attribute tuples.

    ``tuples`` has shape ``(n_groups, n_attributes)`` with columns in schema
    attribute order.
    """

    schema: StreamSchema
    tuples: np.ndarray

    def __post_init__(self) -> None:
        if self.tuples.ndim != 2:
            raise WorkloadError("universe tuples must be 2-dimensional")
        if self.tuples.shape[1] != len(self.schema.attributes):
            raise WorkloadError("universe width must match schema")

    @property
    def n_groups(self) -> int:
        return int(self.tuples.shape[0])

    def columns_for(self, group_indices: np.ndarray) -> dict[str, np.ndarray]:
        """Materialize attribute columns for a sequence of group indices."""
        rows = self.tuples[group_indices]
        return {name: rows[:, i].copy()
                for i, name in enumerate(self.schema.attributes)}


def make_group_universe(schema: StreamSchema,
                        chain: Sequence[int] = PAPER_CHAIN,
                        value_pool: int = 65536,
                        seed: int = 0) -> GroupUniverse:
    """Build a universe with an exact prefix chain of projection counts.

    ``chain[j]`` is the required distinct count of the first ``j + 1``
    attributes; it must be non-decreasing, start at least at 1, and each
    level must be at most ``previous * value_pool``.
    """
    k = len(schema.attributes)
    if len(chain) != k:
        raise WorkloadError(
            f"chain length {len(chain)} != {k} schema attributes")
    if any(c < 1 for c in chain) or any(b < a for a, b in zip(chain, chain[1:])):
        raise WorkloadError(f"chain must be non-decreasing and >= 1: {chain}")
    rng = np.random.default_rng(seed)
    # Level 0: chain[0] distinct values for the first attribute.
    current = rng.choice(value_pool * 4, size=chain[0],
                         replace=False).astype(np.int64).reshape(-1, 1)
    for level in range(1, k):
        target = chain[level]
        n_prev = current.shape[0]
        if target > n_prev * value_pool:
            raise WorkloadError(
                f"chain level {level} ({target}) exceeds capacity "
                f"{n_prev * value_pool}")
        # Every existing prefix is extended at least once; the remaining
        # tuples extend random prefixes.
        parents = np.concatenate([
            np.arange(n_prev),
            rng.integers(0, n_prev, size=target - n_prev),
        ])
        extension = np.empty(target, dtype=np.int64)
        order = np.argsort(parents, kind="stable")
        sorted_parents = parents[order]
        boundaries = np.flatnonzero(
            np.diff(sorted_parents, prepend=sorted_parents[0] - 1))
        counts = np.diff(np.append(boundaries, target))
        for start, cnt in zip(boundaries, counts):
            # Distinct extension values per parent avoid duplicate tuples.
            values = rng.choice(value_pool, size=int(cnt), replace=False)
            extension[order[start:start + cnt]] = values
        current = np.column_stack([current[parents], extension])
    return GroupUniverse(schema, current)
