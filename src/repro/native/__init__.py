"""Runtime-compiled native kernels (shared build machinery + fast paths).

``repro.native.build`` owns the compile-at-first-use pattern every C
kernel shares (compiler discovery, on-disk cache, ``REPRO_NO_CKERNEL``
opt-out, per-kernel diagnostics); ``repro.native.ingest`` is the fused
LFTA accounting kernel behind the vectorized engine's hot loop,
``repro.native.merge`` the HFTA's hash-table group-merge fold and
``repro.native.partition`` the sharded runtime's hash-and-scatter pass.
The allocation descent kernel (:mod:`repro.core.allocation._ckernel`)
builds on the same machinery.

This package deliberately imports nothing from the rest of ``repro`` at
module level, so any tier can depend on it without cycles.
"""

from __future__ import annotations

import os
import platform

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

#: Kernel modules probed by :func:`machine_info`, by dotted module path
#: and the availability predicate each exposes.
_KNOWN_KERNELS = (
    ("repro.native.ingest", "kernel_available"),
    ("repro.native.merge", "kernel_available"),
    ("repro.native.partition", "kernel_available"),
    ("repro.core.allocation._ckernel", "kernel_available"),
)


def machine_info(probe: bool = True) -> dict:
    """Host + native-kernel diagnostics, JSON-shaped (for manifests).

    With ``probe=True`` (default) every known kernel's load is attempted
    so availability is definitive; ``probe=False`` reports only kernels
    some code path already tried. ``c_kernel`` is True only when every
    probed kernel compiled and loaded; per-kernel compiler errors live
    under ``kernels``.
    """
    import importlib

    if probe:
        for module_name, predicate in _KNOWN_KERNELS:
            try:
                module = importlib.import_module(module_name)
                getattr(module, predicate)()
            except Exception:  # pragma: no cover - diagnostic best-effort
                pass
    import numpy

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
