"""Fast collision-rate evaluation (paper Section 4.4, Figures 7-8, Eq. 16).

The precise model depends (almost) only on the ratio ``g/b``, so the paper
pre-computes the curve ``x(g/b)`` and fits it: a degree-2 regression per
interval over the full range (Figure 7), and a single linear fit for the
low-collision region ``x < 0.4`` (Figure 8):

    x = 0.0267 + 0.354 * (g/b)      (Eq. 16)

This module provides the precomputed-lookup model, the regression fits (so
the coefficients can be *re-derived* and compared against the paper's), and
the linear model used by the space-allocation analysis in Section 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.collision.base import clamp_rate
from repro.core.collision.precise import precise_rate

__all__ = [
    "reference_curve",
    "LookupModel",
    "LinearModel",
    "fit_linear_low_region",
    "PiecewiseFit",
    "fit_piecewise",
    "PAPER_ALPHA",
    "PAPER_MU",
]

#: Eq. 16's published coefficients: ``x = PAPER_ALPHA + PAPER_MU * (g/b)``.
PAPER_ALPHA = 0.0267
PAPER_MU = 0.354

#: Reference bucket count at which the ``x(g/b)`` curve is tabulated. The
#: paper shows (Table 1) that the curve varies by < 1.5% across b in
#: [300, 3000], so any b in that range is representative.
REFERENCE_BUCKETS = 1000


def reference_curve(ratios: np.ndarray,
                    buckets: int = REFERENCE_BUCKETS) -> np.ndarray:
    """Evaluate the precise model along ``g/b`` ratios at a reference ``b``."""
    ratios = np.asarray(ratios, dtype=float)
    return np.array([precise_rate(r * buckets, buckets) for r in ratios])


class LookupModel:
    """Collision model backed by a precomputed ``x(g/b)`` table.

    This is the paper's Section 4.4 device — "we can pre-compute the
    collision rates and store them as a function of g/b" — and the model
    the cost-greedy algorithms evaluate Eq. 7 with. The table is built
    once (lazily, shared across instances with the same resolution) on a
    uniform ratio grid, so a query is one index computation and a linear
    interpolation; ratios beyond the table clamp to the last entry (the
    curve is asymptotically 1).
    """

    _cache: dict[tuple[int, float, int], tuple[list[float], float]] = {}

    def __init__(self, max_ratio: float = 64.0, points: int = 4096,
                 buckets: int = REFERENCE_BUCKETS):
        key = (buckets, max_ratio, points)
        if key not in self._cache:
            ratios = np.linspace(0.0, max_ratio, points)
            rates = reference_curve(ratios, buckets)
            step = max_ratio / (points - 1)
            self._cache[key] = (rates.astype(np.float64).tolist(), step)
        self._table, self._step = self._cache[key]

    def rate(self, groups: float, buckets: float) -> float:
        if groups <= 1.0 or buckets <= 0:
            return 0.0
        position = (groups / buckets) / self._step
        index = int(position)
        table = self._table
        if index >= len(table) - 1:
            return table[-1]
        frac = position - index
        return table[index] * (1.0 - frac) + table[index + 1] * frac


@dataclass(frozen=True)
class LinearModel:
    """Eq. 16's linear low-collision model ``x = alpha + mu * (g/b)``.

    The space-allocation analysis (Section 5) further approximates
    ``alpha = 0``; pass ``alpha=0.0`` to reproduce that (the default here,
    matching the allocation derivations — see Section 5.3's discussion of
    why dropping the intercept barely affects results).
    """

    mu: float = PAPER_MU
    alpha: float = 0.0

    def rate(self, groups: float, buckets: float) -> float:
        if groups <= 1.0 or buckets <= 0:
            return 0.0
        return clamp_rate(self.alpha + self.mu * groups / buckets)


def fit_linear_low_region(max_rate: float = 0.4,
                          buckets: int = REFERENCE_BUCKETS,
                          points: int = 400) -> tuple[float, float]:
    """Re-derive Eq. 16: least-squares line over the region ``x <= max_rate``.

    Returns ``(alpha, mu)``; the paper reports ``(0.0267, 0.354)`` and a
    ~5% average error for this fit.
    """
    # Find the ratio where the curve reaches max_rate, then sample up to it.
    hi = 1.0
    while precise_rate(hi * buckets, buckets) < max_rate:
        hi *= 1.5
    ratios = np.linspace(1.0 / points, hi, points)
    rates = reference_curve(ratios, buckets)
    keep = rates <= max_rate
    ratios, rates = ratios[keep], rates[keep]
    mu, alpha = np.polyfit(ratios, rates, 1)
    return float(alpha), float(mu)


@dataclass(frozen=True)
class PiecewiseFit:
    """A per-interval polynomial regression of the ``x(g/b)`` curve (Fig. 7).

    The paper divides the curve into 6 intervals and uses two-dimensional
    (degree-2) regression in each, targeting <= 5% maximum relative error.
    """

    boundaries: tuple[float, ...]
    coefficients: tuple[tuple[float, ...], ...] = field(repr=False)
    max_relative_error: float = 0.0
    mean_relative_error: float = 0.0

    def rate(self, groups: float, buckets: float) -> float:
        if groups <= 1.0 or buckets <= 0:
            return 0.0
        ratio = groups / buckets
        idx = int(np.searchsorted(self.boundaries, ratio, side="right")) - 1
        idx = min(max(idx, 0), len(self.coefficients) - 1)
        return clamp_rate(float(np.polyval(self.coefficients[idx], ratio)))


def fit_piecewise(n_intervals: int = 6, max_ratio: float = 50.0,
                  degree: int = 2, buckets: int = REFERENCE_BUCKETS,
                  points_per_interval: int = 200) -> PiecewiseFit:
    """Fit the Figure 7 curve piecewise and report the achieved errors.

    Interval boundaries are geometric (denser where the curve bends), which
    comfortably meets the paper's 5% max-relative-error target with 6
    degree-2 pieces.
    """
    # Geometric boundaries from a small ratio up to max_ratio, with 0 first.
    inner = np.geomspace(0.25, max_ratio, n_intervals)
    boundaries = np.concatenate(([0.0], inner[:-1]))
    coefficients: list[tuple[float, ...]] = []
    max_err = 0.0
    errs: list[float] = []
    edges = np.concatenate((boundaries, [max_ratio]))
    for lo, hi in zip(edges[:-1], edges[1:]):
        ratios = np.linspace(lo, hi, points_per_interval)
        rates = reference_curve(ratios, buckets)
        coeff = np.polyfit(ratios, rates, degree)
        coefficients.append(tuple(float(c) for c in coeff))
        approx = np.polyval(coeff, ratios)
        denom = np.maximum(rates, 1e-9)
        rel = np.abs(approx - rates) / denom
        # Relative error is only meaningful once the curve is away from 0.
        mask = rates > 1e-3
        if mask.any():
            max_err = max(max_err, float(rel[mask].max()))
            errs.extend(rel[mask].tolist())
    mean_err = float(np.mean(errs)) if errs else 0.0
    return PiecewiseFit(tuple(float(b) for b in boundaries),
                        tuple(coefficients), max_err, mean_err)
