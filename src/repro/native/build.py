"""Build machinery for runtime-compiled C kernels.

A self-contained C source string is compiled at first use with whatever
compiler the host offers, cached as a shared object in the system temp
directory keyed by a hash of the source and flags, and loaded through
:mod:`ctypes`. This module owns that pattern once — compiler discovery,
the on-disk cache with atomic publish, and the one per-process memo of
load outcomes (library, or compiler error). It knows no kernel of its
own: the repo builds one library through it
(:mod:`repro.native.library`), whose record
:func:`repro.native.machine_info` surfaces in ``RunManifest.machine``.

A failed build is recorded, not raised: :func:`load_kernel` returns
None and the error string stays queryable through
:func:`kernel_status`. What a failure means is the caller's to say; the
library's first use raises it as
:class:`~repro.errors.NativeLibraryError`.

The cache lives in a shared directory under a predictable name, so a
cached file is loaded only when it is a regular file owned by this user
that nobody else can write; anything else is rebuilt over. A cached file
that fails to load (truncated, wrong architecture) is unlinked and
compiled once more before the kernel is given up.

The default flags disable floating-point contraction and fast-math so C
doubles round identically to numpy's IEEE binary64 ops — the property
the library's bit-identity contract rests on.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

__all__ = ["DEFAULT_FLAGS", "KernelStatus", "compiler_path",
           "kernel_status", "load_kernel"]

#: Contraction and fast-math stay off: bit-identity to numpy requires
#: every intermediate to round exactly as IEEE binary64.
DEFAULT_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off",
                 "-fno-fast-math")


@dataclass
class KernelStatus:
    """Outcome of one kernel's (single) load attempt."""

    name: str
    available: bool = False
    #: Compiler path used (None when no compiler was found).
    compiler: str | None = None
    #: Diagnostic for a failed build/load, None on success.
    error: str | None = None
    #: The loaded library, signatures applied (None unless available).
    lib: ctypes.CDLL | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {"available": self.available, "compiler": self.compiler,
                "error": self.error}


#: The per-process memo: one load attempt, hence one record, per kernel.
#: A record is published only once its attempt has an outcome.
_statuses: dict[str, KernelStatus] = {}

#: Held around every first attempt, so a concurrent caller waits for its
#: outcome instead of reading an attempt still in progress.
_first_load = threading.Lock()


def compiler_path() -> str | None:
    """The first available C compiler (cc/gcc/clang), or None."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _uid() -> int:
    return getattr(os, "getuid", lambda: 0)()


def _cache_path(name: str, source: str, flags: tuple[str, ...]) -> Path:
    digest = hashlib.sha256(
        (source + " ".join(flags)).encode()).hexdigest()[:16]
    return Path(tempfile.gettempdir()) / \
        f"repro_kernel_{name}_{digest}_{_uid()}.so"


def _trusted(cache: Path) -> bool:
    """Whether a cached object may be loaded: a regular file (not a
    link) owned by this user that neither group nor other can write."""
    try:
        found = os.lstat(cache)
    except OSError:
        return False
    return (stat.S_ISREG(found.st_mode) and found.st_uid == _uid()
            and not found.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def _compile(compiler: str, name: str, source: str, flags: tuple[str, ...],
             cache: Path, status: KernelStatus) -> bool:
    """Build ``source`` and publish it at ``cache``; False (with
    ``status.error`` set) when the build or the publish fails."""
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
            return False
        if result.returncode != 0 or not out.exists():
            stderr = result.stderr.decode(errors="replace").strip()
            status.error = (f"{compiler} exited {result.returncode}"
                            + (f": {stderr}" if stderr else ""))
            return False
        try:
            # Whatever the umask, the published file passes _trusted.
            out.chmod(0o755)
            # Atomic publish so concurrent processes race safely, and so
            # an untrusted file under the same name is replaced, not read.
            os.replace(out, cache)
        except OSError as exc:
            status.error = f"cannot publish {cache}: {exc}"
            return False
    return True


def _build_and_load(name: str, source: str, flags: tuple[str, ...],
                    status: KernelStatus) -> ctypes.CDLL | None:
    compiler = compiler_path()
    status.compiler = compiler
    if compiler is None:
        status.error = "no C compiler found (tried cc, gcc, clang)"
        return None
    cache = _cache_path(name, source, flags)
    if _trusted(cache):
        try:
            return ctypes.CDLL(str(cache))
        except OSError:
            # Truncated or otherwise unloadable: left in place it would
            # fail every later process too. Rebuild, once.
            cache.unlink(missing_ok=True)
    if not _compile(compiler, name, source, flags, cache, status):
        return None
    return ctypes.CDLL(str(cache))


def load_kernel(name: str, source: str,
                signatures: Mapping[str, tuple[object, Sequence]],
                flags: tuple[str, ...] = DEFAULT_FLAGS
                ) -> ctypes.CDLL | None:
    """Compile-and-load ``source`` as kernel ``name``; None on failure.

    ``signatures`` maps each exported function to its ctypes ``(restype,
    argtypes)``, applied once when the library loads. One attempt per
    process per name: the outcome (library or failure diagnostic,
    :func:`kernel_status`) is memoised here and nowhere else, so callers
    ask for it freely; a thread that asks while another thread's first
    attempt is under way waits for its outcome.
    """
    status = _statuses.get(name)
    if status is not None:
        return status.lib
    with _first_load:
        status = _statuses.get(name)
        if status is not None:  # another thread's attempt finished
            return status.lib
        status = KernelStatus(name=name)
        try:
            return _attempt(name, source, signatures, tuple(flags), status)
        finally:
            _statuses[name] = status


def _attempt(name: str, source: str,
             signatures: Mapping[str, tuple[object, Sequence]],
             flags: tuple[str, ...], status: KernelStatus
             ) -> ctypes.CDLL | None:
    """:func:`load_kernel`'s one attempt, recorded into ``status``."""
    try:
        lib = _build_and_load(name, source, flags, status)
        if lib is not None:
            for function, (restype, argtypes) in signatures.items():
                entry = getattr(lib, function)
                entry.restype, entry.argtypes = restype, argtypes
            status.lib = lib
            status.available = True
            return lib
    except Exception as exc:  # e.g. a fresh build that does not load
        if status.error is None:
            status.error = f"{type(exc).__name__}: {exc}"
    return None


def kernel_status(name: str) -> KernelStatus | None:
    """The recorded load outcome for ``name`` (None before any attempt)."""
    return _statuses.get(name)
