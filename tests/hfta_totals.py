"""One HFTA key's answer as a ``{group: GroupAggregate}`` dict.

The HFTA keeps its per-(relation, epoch) state columnar
(:meth:`~repro.gigascope.hfta.HFTA.totals_columnar`); the differential
suites compare whole keys, NaN sums and ``±inf`` sentinels included, and
read single groups, which is what this dict form is for.
"""

import math
from typing import NamedTuple

__all__ = ["GroupAggregate", "totals"]


class GroupAggregate(NamedTuple):
    """A group's merged partial aggregate for one epoch."""

    count: int
    value_sum: float = 0.0
    value_min: float = math.inf
    value_max: float = -math.inf


def totals(hfta, relation, epoch) -> dict[tuple[int, ...], GroupAggregate]:
    """``group -> GroupAggregate`` of one key (``{}`` when the key was
    never fed)."""
    state = hfta.totals_columnar(relation, epoch)
    if state is None:
        return {}
    return dict(zip(state.group_tuples(), map(
        GroupAggregate, state.counts.tolist(), state.value_sums.tolist(),
        state.value_mins.tolist(), state.value_maxs.tolist())))
