"""A pytest plugin that builds the native library under a sanitizer.

``python -m pytest -p tests.sanitizers --sanitize=NAME`` builds every
kernel of the run, the library and the tests' toy kernels, at ``-O1
-g`` with sanitizer ``NAME`` in place of ``-O3``; the flags keeping
contraction and fast-math off stay. The build is cached apart from the
plain one, as its flags differ.

* ``undefined``: ``-fsanitize=undefined``, with the runtime linked into
  the library (``-static-libubsan``) and every report fatal, so a
  report fails the run.
* ``address``: ``-fsanitize=address``. The interpreter is not built
  with it, so the runtime must be loaded first::

      LD_PRELOAD=$(gcc -print-file-name=libasan.so) \\
      ASAN_OPTIONS=detect_leaks=0 \\
      python -m pytest -p tests.sanitizers --sanitize=address ...

  (the interpreter's own allocations would read as leaks).

Only the test run chooses these flags: the product builds with
:data:`repro.native.build.DEFAULT_FLAGS`.
"""

from __future__ import annotations

import os

import pytest

from repro.native import build as native_build

#: Each sanitizer's flags, added to the build's.
SANITIZERS = {
    "undefined": ("-fsanitize=undefined", "-fno-sanitize-recover=all",
                  "-static-libubsan"),
    "address": ("-fsanitize=address", "-fno-omit-frame-pointer"),
}


def pytest_addoption(parser):
    parser.addoption(
        "--sanitize", choices=sorted(SANITIZERS), default=None,
        help="build the native library under this sanitizer")


def pytest_configure(config):
    name = config.getoption("sanitize")
    if name is None:
        return
    if name == "address" and "libasan" not in os.environ.get(
            "LD_PRELOAD", ""):
        raise pytest.UsageError(
            "--sanitize=address needs the runtime preloaded: "
            "LD_PRELOAD=$(gcc -print-file-name=libasan.so)")
    flags = tuple("-O1" if flag == "-O3" else flag
                  for flag in native_build.DEFAULT_FLAGS) + (
        "-g", *SANITIZERS[name])
    # load_kernel holds the default as its own: set both
    native_build.DEFAULT_FLAGS = flags
    native_build.load_kernel.__defaults__ = (flags,)


def pytest_report_header(config):
    if config.getoption("sanitize") is not None:
        return "native build flags: " + " ".join(native_build.DEFAULT_FLAGS)
