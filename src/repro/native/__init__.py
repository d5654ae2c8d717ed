"""The runtime-compiled native library and its Python entries.

The library is the product's only body of four facts: the LFTA walk,
the partition hash, the statistics pass and the sketch update. A C
compiler is an install requirement, like numpy; without one, the first
use of any of them raises :class:`~repro.errors.NativeLibraryError`
with the compiler's message, and :func:`machine_info` records it.
``repro.native.build`` owns the compile-at-first-use pattern (compiler
discovery, on-disk cache, the per-process memo of load outcomes);
``repro.native.library`` holds the one C source, built and loaded once
as one library. The library's entries are wrapped by
``repro.native.ingest`` (the engine's LFTA walk of the whole forest,
with the fold of what it emits, one call per epoch) and
``repro.native.partition`` (the sharded runtime's partition hash and
shard-id count, and the planner's one-pass group and flow counts);
``repro.core.sketches`` calls the sketches' entry itself.

:func:`cores` is the one answer to how many cores the process may use:
the engine's epoch pool, its two lanes and the partition hash's split
all read it, so patching it pins all three.

This package imports nothing from the rest of ``repro`` but
:mod:`repro.errors`, so any tier can depend on it without cycles.
"""

from __future__ import annotations

import os
import platform

import numpy

from repro.native import library
from repro.native.build import (
    DEFAULT_FLAGS,
    KernelStatus,
    compiler_path,
    kernel_status,
    load_kernel,
)
from repro.native.library import available

__all__ = ["DEFAULT_FLAGS", "KernelStatus", "available", "compiler_path",
           "cores", "kernel_status", "load_kernel", "machine_info"]


def cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def machine_info() -> dict:
    """Host + native-library diagnostics, JSON-shaped (for manifests).

    The library's load is attempted, so availability is definitive:
    ``c_kernel`` is whether it compiled and loaded, and ``kernels`` holds
    its one record, the compiler error of a failed build included (this
    call reports it; the library's first use raises it), and
    ``hash_isa``, the block hasher it runs
    (:func:`repro.native.library.hash_isa`).
    """
    loaded = available()
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "compiler": compiler_path(),
        "c_kernel": loaded,
        "kernels": {library.NAME: {**kernel_status(library.NAME).to_dict(),
                                   "hash_isa": library.hash_isa()}},
    }
