"""Shared build machinery for runtime-compiled C kernels.

Every native fast path in the repo (the allocation descent kernel, the
engine ingest kernel) follows the same pattern: a self-contained C source
string is compiled at first use with whatever compiler the host offers,
cached as a shared object in the system temp directory keyed by a hash of
the source and flags, and loaded through :mod:`ctypes`. This module owns
that pattern once — compiler discovery, the on-disk cache with atomic
publish, the ``REPRO_NO_CKERNEL`` opt-out, and per-kernel status records
(available / disabled / compiler error) that observability surfaces in
``RunManifest.machine``.

Kernels are best-effort by design: a missing compiler or a failed build
degrades to the numpy path, never to an exception. The degradation is no
longer silent, though — the first failed load of each kernel emits a
``RuntimeWarning`` carrying the compiler diagnostic, and the error string
stays queryable through :func:`kernel_status` / :func:`diagnostics`.

The default flags disable floating-point contraction and fast-math so C
doubles round identically to numpy's IEEE binary64 ops — the property
every kernel's bit-identity contract rests on.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

__all__ = ["DEFAULT_FLAGS", "KernelStatus", "compiler_path", "diagnostics",
           "kernels_disabled", "kernel_status", "load_kernel"]

#: Contraction and fast-math stay off: bit-identity to numpy requires
#: every intermediate to round exactly as IEEE binary64.
DEFAULT_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off",
                 "-fno-fast-math")

#: Environment opt-out honoured by every kernel (no compile attempt, no
#: warning — the downgrade is requested, not silent).
DISABLE_ENV = "REPRO_NO_CKERNEL"


@dataclass
class KernelStatus:
    """Outcome of one kernel's (single) load attempt."""

    name: str
    available: bool = False
    #: True when ``REPRO_NO_CKERNEL`` suppressed the attempt.
    disabled: bool = False
    #: Compiler path used (None when no compiler was found).
    compiler: str | None = None
    #: Diagnostic for a failed build/load, None on success.
    error: str | None = None

    def to_dict(self) -> dict:
        return {"available": self.available, "disabled": self.disabled,
                "compiler": self.compiler, "error": self.error}


_statuses: dict[str, KernelStatus] = {}
_libs: dict[str, ctypes.CDLL] = {}


def kernels_disabled() -> bool:
    """Whether ``REPRO_NO_CKERNEL`` requests the pure-python paths."""
    return bool(os.environ.get(DISABLE_ENV))


def compiler_path() -> str | None:
    """The first available C compiler (cc/gcc/clang), or None."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _compile(name: str, source: str, flags: tuple[str, ...],
             status: KernelStatus) -> Path | None:
    compiler = compiler_path()
    status.compiler = compiler
    if compiler is None:
        status.error = "no C compiler found (tried cc, gcc, clang)"
        return None
    digest = hashlib.sha256(
        (source + " ".join(flags)).encode()).hexdigest()[:16]
    uid = getattr(os, "getuid", lambda: 0)()
    cache = Path(tempfile.gettempdir()) / \
        f"repro_kernel_{name}_{digest}_{uid}.so"
    if cache.exists():
        return cache
    with tempfile.TemporaryDirectory() as build:
        src = Path(build) / f"{name}.c"
        out = Path(build) / f"{name}.so"
        src.write_text(source)
        try:
            result = subprocess.run(
                [compiler, *flags, "-o", str(out), str(src)],
                capture_output=True, timeout=60.0)
        except (OSError, subprocess.SubprocessError) as exc:
            status.error = f"compiler invocation failed: {exc}"
            return None
        if result.returncode != 0 or not out.exists():
            stderr = result.stderr.decode(errors="replace").strip()
            status.error = (f"{compiler} exited {result.returncode}"
                            + (f": {stderr}" if stderr else ""))
            return None
        # Atomic publish so concurrent processes race safely.
        os.replace(out, cache)
    return cache


def load_kernel(name: str, source: str,
                flags: tuple[str, ...] = DEFAULT_FLAGS
                ) -> ctypes.CDLL | None:
    """Compile-and-load ``source`` as kernel ``name``; None on failure.

    One attempt per process per name: the outcome (library or failure
    diagnostic) is cached, so callers may gate hot paths on this freely.
    A failed build emits a one-time ``RuntimeWarning`` with the compiler
    error; ``REPRO_NO_CKERNEL`` suppresses both the attempt and the
    warning.
    """
    if name in _statuses:
        return _libs.get(name)
    status = KernelStatus(name=name)
    _statuses[name] = status
    if kernels_disabled():
        status.disabled = True
        return None
    try:
        cache = _compile(name, source, tuple(flags), status)
        if cache is not None:
            _libs[name] = ctypes.CDLL(str(cache))
            status.available = True
            return _libs[name]
    except Exception as exc:  # pragma: no cover - load-time OS failures
        if status.error is None:
            status.error = f"{type(exc).__name__}: {exc}"
    warnings.warn(
        f"native kernel {name!r} unavailable, falling back to the "
        f"pure-python/numpy path ({status.error}); set "
        f"{DISABLE_ENV}=1 to silence this warning",
        RuntimeWarning, stacklevel=2)
    return None


def kernel_status(name: str) -> KernelStatus | None:
    """The recorded load outcome for ``name`` (None before any attempt)."""
    return _statuses.get(name)


def diagnostics() -> dict[str, dict]:
    """Status of every kernel this process has attempted, JSON-shaped."""
    return {name: status.to_dict()
            for name, status in sorted(_statuses.items())}
