"""Per-relation statistics consumed by the cost model.

For every relation ``R`` the optimizer needs:

* ``g_R`` — the number of distinct groups of the stream projected onto
  ``R``'s attributes;
* ``l_R`` — the average flow length at ``R``'s granularity (1 for random
  data; the paper derives it temporally, Sec. 6.3.3);
* ``h_R`` — the hash-table entry size in allocation units (one unit per
  grouping attribute plus one per counter, Sec. 5.3).

Statistics can be supplied directly (model studies) or measured from a
dataset via :func:`repro.workloads.datasets.measure_statistics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.core.attributes import AttributeSet
from repro.errors import StatisticsError

__all__ = ["RelationStatistics"]


@dataclass(frozen=True)
class RelationStatistics:
    """Group counts, flow lengths and entry sizes for a set of relations.

    Parameters
    ----------
    groups:
        Mapping from attribute set to its number of distinct groups.
    flow_lengths:
        Mapping from attribute set to its mean flow length; relations not
        present default to 1.0 (random, unclustered data).
    attr_units / counter_units:
        Size, in allocation units (4 bytes in the paper), of one attribute
        value and of one aggregate counter. Entry size is
        ``len(attrs) * attr_units + counters * counter_units``.
    counters:
        Number of counters per entry (1 for count-only entries; 2 when a
        value sum is carried for ``sum``/``avg`` aggregates).
    """

    groups: Mapping[AttributeSet, float]
    flow_lengths: Mapping[AttributeSet, float] = field(default_factory=dict)
    attr_units: int = 1
    counter_units: int = 1
    counters: int = 1

    def __post_init__(self) -> None:
        for attrs, g in self.groups.items():
            if g < 1:
                raise StatisticsError(f"group count for {attrs} must be >= 1")
        for attrs, length in self.flow_lengths.items():
            if length < 1:
                raise StatisticsError(
                    f"flow length for {attrs} must be >= 1, got {length}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_counts(cls, counts: Mapping[str | AttributeSet, float],
                    flow_lengths: Mapping[str | AttributeSet, float] | None = None,
                    **kwargs) -> "RelationStatistics":
        """Build from label-keyed mappings, e.g. ``{"A": 552, "AB": 1846}``."""

        def to_attrs(key: str | AttributeSet) -> AttributeSet:
            if isinstance(key, AttributeSet):
                return key
            return AttributeSet.parse(key)

        groups = {to_attrs(k): float(v) for k, v in counts.items()}
        flows = {to_attrs(k): float(v)
                 for k, v in (flow_lengths or {}).items()}
        return cls(groups, flows, **kwargs)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def group_count(self, attrs: AttributeSet) -> float:
        try:
            return float(self.groups[attrs])
        except KeyError:
            raise StatisticsError(
                f"no group count recorded for relation {attrs}") from None

    def flow_length(self, attrs: AttributeSet) -> float:
        return float(self.flow_lengths.get(attrs, 1.0))

    def entry_units(self, attrs: AttributeSet) -> int:
        """Hash-table entry size ``h_R`` in allocation units."""
        return (len(attrs) * self.attr_units
                + self.counters * self.counter_units)

    def has(self, attrs: AttributeSet) -> bool:
        return attrs in self.groups

    def covered(self, relations: Iterable[AttributeSet]) -> bool:
        return all(r in self.groups for r in relations)

