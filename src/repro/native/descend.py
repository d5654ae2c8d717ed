"""C kernel for the ES coordinate descent.

First-improvement descent is inherently sequential — every accepted move
changes the point the next trial starts from — so it does not vectorize;
this module compiles the *entire* descent of
:func:`repro.core.allocation.exhaustive.descend` (Eq. 7 evaluation +
mutate/revert scan) to native code at first use, which is what makes ES
usable as an online reference. It reads the configuration in
topological index order (``Configuration.topological``) as arrays:
``g``, ``h`` (entry sizes, also the one-bucket floors), the flow divisor
per relation (``l`` for a raw relation on a clustered stream, else 1),
``parent`` (negative for raw) and ``leaf``.

Bit-identity contract (pinned by
``tests/core/test_cost_evaluator_vectorized.py``): the C source
replicates ``exhaustive._scalar_descend`` op-for-op — the scalar Eq. 7
of :func:`~repro.core.cost_model.intra_cost` with the same lookup-table
lerp and ``min(max(x,0),1)`` comparison semantics, and the same
in-place ``-= step`` / ``+= step`` mutate-and-revert, including its
rounding. Python floats and C doubles are both IEEE binary64, so with
floating-point contraction disabled
(:data:`repro.native.build.DEFAULT_FLAGS`) every intermediate rounds
identically and the kernel's output is bitwise equal to the
interpreter's.

The kernel is best-effort: no compiler or ``REPRO_NO_CKERNEL=1`` leaves
the allocator on the scalar loop with identical results.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.native.build import load_kernel

__all__ = ["KERNEL_NAME", "descend", "kernel_available"]

KERNEL_NAME = "es_descend"

_SOURCE = r"""
#include <stdint.h>

static double rate_lookup(double groups, double buckets,
                          const double *table, int64_t nt, double step) {
    double position, frac;
    int64_t index;
    if (groups <= 1.0 || buckets <= 0.0) return 0.0;
    position = (groups / buckets) / step;
    if (position >= (double)(nt - 1)) return table[nt - 1];
    index = (int64_t)position;
    frac = position - (double)index;
    return table[index] * (1.0 - frac) + table[index + 1] * frac;
}

static double cost_eval(const double *spaces, int64_t n,
                        const double *groups, const double *entry,
                        const double *flow, const int64_t *parent,
                        const uint8_t *leaf, double c1, double c2,
                        const double *table, int64_t nt, double tstep,
                        double *coeff, double *x) {
    int64_t i;
    double probe = 0.0, evict = 0.0;
    for (i = 0; i < n; i++) {
        double buckets = spaces[i] / entry[i];
        double r = rate_lookup(groups[i], buckets, table, nt, tstep)
                   / flow[i];
        if (0.0 > r) r = 0.0;  /* Python max(x, 0.0) keeps x unless 0 > x */
        if (1.0 < r) r = 1.0;  /* Python min(x, 1.0) keeps x unless 1 < x */
        x[i] = r;
    }
    for (i = 0; i < n; i++) {
        double ci = 1.0;
        if (parent[i] >= 0) ci = coeff[parent[i]] * x[parent[i]];
        coeff[i] = ci;
        probe += ci;
        if (leaf[i]) evict += ci * x[i];
    }
    return probe * c1 + evict * c2;
}

double repro_descend(double *spaces, int64_t n, const double *floors,
                     const double *groups, const double *entry,
                     const double *flow, const int64_t *parent,
                     const uint8_t *leaf, double c1, double c2,
                     const double *table, int64_t nt, double tstep,
                     double step, double min_step,
                     double *coeff, double *x) {
    double cost = cost_eval(spaces, n, groups, entry, flow, parent, leaf,
                            c1, c2, table, nt, tstep, coeff, x);
    while (step >= min_step) {
        int improved = 1;
        while (improved) {
            int64_t i, j;
            improved = 0;
            for (i = 0; i < n; i++) {
                if (spaces[i] - step < floors[i]) continue;
                for (j = 0; j < n; j++) {
                    double trial;
                    if (i == j) continue;
                    spaces[i] -= step;
                    spaces[j] += step;
                    trial = cost_eval(spaces, n, groups, entry, flow,
                                      parent, leaf, c1, c2, table, nt,
                                      tstep, coeff, x);
                    if (trial < cost - 1e-15) {
                        cost = trial;
                        improved = 1;
                    } else {
                        spaces[i] += step;
                        spaces[j] -= step;
                    }
                    if (spaces[i] - step < floors[i]) break;
                }
            }
        }
        step /= 2.0;
    }
    return cost;
}
"""

_DP = ctypes.POINTER(ctypes.c_double)
_IP = ctypes.POINTER(ctypes.c_int64)
_UP = ctypes.POINTER(ctypes.c_uint8)

_SIGNATURES = {"repro_descend": (ctypes.c_double, [
    _DP, ctypes.c_int64, _DP, _DP, _DP, _DP, _IP, _UP,
    ctypes.c_double, ctypes.c_double, _DP, ctypes.c_int64,
    ctypes.c_double, ctypes.c_double, ctypes.c_double, _DP, _DP,
])}


def _kernel() -> ctypes.CDLL | None:
    return load_kernel(KERNEL_NAME, _SOURCE, _SIGNATURES)


def kernel_available() -> bool:
    """Whether the descent kernel could be compiled and loaded."""
    return _kernel() is not None


def _dptr(a: np.ndarray):
    return a.ctypes.data_as(_DP)


def descend(spaces, floors, groups, entry, flow, parent, leaf,
            c1: float, c2: float, table: np.ndarray, tstep: float,
            step: float, min_step: float) -> list[float]:
    """Run the full coordinate descent natively; returns the final spaces.

    All array arguments are converted to contiguous float64/int64/uint8
    buffers; ``spaces`` is copied, never mutated. Call only when
    :func:`kernel_available` is True.
    """
    lib = _kernel()
    assert lib is not None
    s = np.ascontiguousarray(spaces, dtype=np.float64).copy()
    n = s.size
    fl = np.ascontiguousarray(floors, dtype=np.float64)
    g = np.ascontiguousarray(groups, dtype=np.float64)
    e = np.ascontiguousarray(entry, dtype=np.float64)
    f = np.ascontiguousarray(flow, dtype=np.float64)
    p = np.ascontiguousarray(parent, dtype=np.int64)
    lf = np.ascontiguousarray(leaf, dtype=np.uint8)
    t = np.ascontiguousarray(table, dtype=np.float64)
    coeff = np.empty(n, dtype=np.float64)
    x = np.empty(n, dtype=np.float64)
    lib.repro_descend(
        _dptr(s), ctypes.c_int64(n), _dptr(fl), _dptr(g), _dptr(e),
        _dptr(f), p.ctypes.data_as(_IP), lf.ctypes.data_as(_UP),
        ctypes.c_double(c1), ctypes.c_double(c2), _dptr(t),
        ctypes.c_int64(t.size), ctypes.c_double(tstep),
        ctypes.c_double(step), ctypes.c_double(min_step),
        _dptr(coeff), _dptr(x))
    return s.tolist()
