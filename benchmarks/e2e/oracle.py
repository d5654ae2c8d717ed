"""Independent correctness oracle: plain numpy group-bys over the stream.

Nothing here imports ``repro``. Per query and epoch the expected answer
is a sort-based group-by over the epoch's raw rows (``np.lexsort``, cut
at key changes, segment counts and sums) — no hash tables, no phantoms,
no partial aggregates — so
a bug anywhere between the LFTA probe and the rendered answer shows as a
mismatch. Comparison is exact: counts are integers, and the benchmark's
value column holds integral lengths, so float64 sums (and the one
division of ``avg``) do not depend on the order partials were merged in.

Answers have the system's public shape: ``{group tuple: value}`` per
epoch, groups as tuples of Python ints in the query's attribute order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Oracle"]


class Oracle:
    """Expected per-epoch answers for one generated stream."""

    def __init__(self, columns: dict[str, np.ndarray],
                 timestamps: np.ndarray, epoch_seconds: float,
                 values: np.ndarray | None = None):
        self.columns = columns
        self.values = values
        epoch_ids = np.floor(
            np.asarray(timestamps, dtype=np.float64) / epoch_seconds
        ).astype(np.int64)
        cuts = np.flatnonzero(np.diff(epoch_ids)) + 1
        starts = np.concatenate(([0], cuts))
        ends = np.concatenate((cuts, [epoch_ids.shape[0]]))
        #: epoch id -> (first record, one past the last record)
        self.slices = {int(epoch_ids[s]): (int(s), int(e))
                       for s, e in zip(starts, ends)}

    @property
    def epochs(self) -> list[int]:
        return sorted(self.slices)

    def records_in(self, epoch: int) -> int:
        start, end = self.slices[epoch]
        return end - start

    def _group(self, attrs: tuple[str, ...], epoch: int):
        """``(group tuples, counts, value sums or None)`` for one epoch.

        Sort the epoch's rows, cut where any attribute changes, and
        reduce each segment (the sort-based group-by; ``np.unique`` over
        rows does the same an order of magnitude slower)."""
        start, end = self.slices[epoch]
        columns = [self.columns[a][start:end] for a in attrs]
        order = np.lexsort(columns[::-1])
        columns = [column[order] for column in columns]
        first = np.ones(end - start, dtype=bool)
        for column in columns:
            first[1:] &= column[1:] == column[:-1]
        first[1:] = ~first[1:]
        heads = np.flatnonzero(first)
        counts = np.diff(np.append(heads, end - start))
        sums = None
        if self.values is not None:
            sums = np.add.reduceat(self.values[start:end][order], heads)
        groups = list(zip(*(column[heads].tolist() for column in columns)))
        return groups, counts, sums

    def answer(self, attrs: tuple[str, ...], epoch: int,
               kind: str = "count", having_min: int | None = None
               ) -> dict[tuple[int, ...], float]:
        """The exact answer of one query for one epoch."""
        if epoch not in self.slices:
            return {}
        groups, counts, sums = self._group(tuple(attrs), epoch)
        if kind == "count":
            out = counts.astype(np.float64)
        elif kind == "avg":
            out = sums / counts
        else:
            raise ValueError(f"the oracle knows count and avg, not {kind!r}")
        out = out.tolist()
        if having_min is not None:
            keep = (counts >= having_min).tolist()
            return {g: v for g, v, k in zip(groups, out, keep) if k}
        return dict(zip(groups, out))

    def check(self, attrs: tuple[str, ...], got: dict[int, dict],
              epochs, kind: str = "count",
              having_min: int | None = None) -> tuple[int, int]:
        """Compare one query's per-epoch answers over ``epochs``.

        Returns ``(checks attempted, checks failed)``: one equality
        check per expected epoch, one for "no epochs beyond the expected
        ones", and for unfiltered ``count`` queries one conservation
        check per epoch (the answer's counts sum to the records that
        arrived in that epoch).
        """
        attempted = failed = 0
        expected_epochs = [e for e in epochs if e in self.slices]
        for epoch in expected_epochs:
            attempted += 1
            answer = got.get(epoch)
            if answer != self.answer(attrs, epoch, kind, having_min):
                failed += 1
            if kind == "count" and having_min is None:
                attempted += 1
                if answer is None or \
                        sum(answer.values()) != self.records_in(epoch):
                    failed += 1
        attempted += 1
        if set(got) - set(expected_epochs):
            failed += 1
        return attempted, failed
