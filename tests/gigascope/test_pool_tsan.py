"""The native library's pool under ThreadSanitizer.

TSan cannot run through the Python interpreter here (a preloaded
``libtsan`` crashes it at start), so ``pool_driver.c``, a small C
driver, includes the library's source and drives the pool as the Python
side does: a multi-epoch walk on the caller and three helpers, two-lane
walks, a split partition hash, and calls whose job fails (a walk whose
folds fail, ``fail_walk``, is the one addition to the source). Built
with ``-fsanitize=thread``, it must print ``ok`` with no
``ThreadSanitizer`` report. The source is built without its
``HASH_DISPATCH`` line: the plain ``hash_block``, which equals the
dispatched one byte for byte, keeps the loader's ifunc out of an
instrumented executable. The driver and its build run without an
inherited ``LD_PRELOAD``: another sanitizer's runtime preloaded into
the test run (``tests/sanitizers.py``) cannot share a process with
TSan's. Skipped only where the compiler cannot link
``-fsanitize=thread``.
"""

import os
import subprocess
from pathlib import Path

import pytest

from repro.native import build as native_build
from repro.native import library as native_library

DRIVER = Path(__file__).with_name("pool_driver.c")

FLAGS = ("-fsanitize=thread", "-g", "-O1", "-pthread")

#: The environment the driver is built and run in.
ENV = {k: v for k, v in os.environ.items() if k != "LD_PRELOAD"}


def _source() -> str:
    """The library's source, plain, with a walk whose folds fail."""
    source = native_library.SOURCE.replace("#define HASH_DISPATCH 1\n", "")
    for old, new in [
            ("static int by_bucket_then_run(",
             "static walk_t *fail_walk;\n\nstatic int by_bucket_then_run("),
            ("    if (reserve_groups(W, n_seed + n_runs) < 0)",
             "    if (W == fail_walk || reserve_groups(W, n_seed + n_runs) "
             "< 0)")]:
        assert old in source
        source = source.replace(old, new, 1)
    return source


@pytest.fixture(scope="module")
def tsan_cc(tmp_path_factory):
    """The library's compiler, once it has linked a program with
    ``-fsanitize=thread``; the test skips without one."""
    cc = native_build.compiler_path()
    if cc is None:
        pytest.skip("no C compiler")
    work = tmp_path_factory.mktemp("tsan_probe")
    (work / "probe.c").write_text("int main(void) { return 0; }\n")
    probe = subprocess.run([cc, *FLAGS, "-o", str(work / "probe"),
                            str(work / "probe.c")],
                           capture_output=True, text=True, timeout=60.0,
                           env=ENV)
    if probe.returncode != 0:
        pytest.skip(f"{cc} cannot link -fsanitize=thread: "
                    f"{probe.stderr.strip()[:200]}")
    return cc


def test_pool_driver_is_race_free(tsan_cc, tmp_path):
    (tmp_path / "lib.c").write_text(_source())
    (tmp_path / "driver.c").write_text(DRIVER.read_text())
    built = subprocess.run(
        [tsan_cc, *FLAGS, "-o", str(tmp_path / "driver"),
         str(tmp_path / "driver.c"), "-lm"],
        capture_output=True, text=True, timeout=120.0, env=ENV)
    assert built.returncode == 0, built.stderr
    ran = subprocess.run([str(tmp_path / "driver")], capture_output=True,
                         text=True, timeout=120.0, env=ENV)
    assert "ThreadSanitizer" not in ran.stderr, ran.stderr
    assert (ran.returncode, ran.stdout) == (0, "ok\n"), ran.stdout
