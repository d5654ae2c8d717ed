"""Runtime-compiled native kernels (shared build machinery + fast paths).

This package is the one place that knows whether C is available.
``repro.native.build`` owns the compile-at-first-use pattern every
kernel shares (compiler discovery, on-disk cache, the
``REPRO_NO_CKERNEL`` opt-out, the per-process memo of load outcomes);
the three kernels are ``repro.native.ingest`` (the engine's LFTA walk of
the whole forest, one call per epoch), ``repro.native.merge`` (the HFTA's
hash-table group-merge fold, and through the same table the planner's
exact group and flow counts) and ``repro.native.partition`` (the sharded
runtime's partition hash). Each exposes ``kernel_available()`` — a
lookup in that memo — and callers pick the kernel or their numpy body
from it; there is no per-call or per-object switch.

This package imports nothing from the rest of ``repro``, so any tier can
depend on it without cycles.
"""

from __future__ import annotations

import os
import platform

import numpy

from repro.native import ingest, merge, partition
from repro.native.build import (
    DEFAULT_FLAGS,
    KernelStatus,
    compiler_path,
    diagnostics,
    kernel_status,
    kernels_disabled,
    load_kernel,
)

__all__ = ["DEFAULT_FLAGS", "KernelStatus", "compiler_path", "diagnostics",
           "kernel_status", "kernels_disabled", "load_kernel",
           "machine_info"]


def machine_info() -> dict:
    """Host + native-kernel diagnostics, JSON-shaped (for manifests).

    Every kernel's load is attempted, so availability is definitive.
    ``c_kernel`` is True only when every kernel compiled and loaded;
    per-kernel compiler errors live under ``kernels``.
    """
    for module in (ingest, merge, partition):
        module.kernel_available()
    kernels = diagnostics()
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "compiler": compiler_path(),
        "c_kernel": bool(kernels) and all(k["available"]
                                          for k in kernels.values()),
        "c_kernel_disabled": kernels_disabled(),
        "kernels": kernels,
    }
