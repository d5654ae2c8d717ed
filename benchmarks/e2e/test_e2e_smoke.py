"""Smoke test of the end-to-end benchmark; not part of the tier-1 suite.

Run it explicitly::

    python -m pytest benchmarks/e2e/test_e2e_smoke.py

It invokes ``run.py --check``: tiny sizes, one traced run per workload,
asserting that every named metric is printed with a unit, that the
oracle passes, that ``trace.coverage_pct`` is in range and that
``BENCHMARK.json`` agrees with the metric tables.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path


def test_check_mode_passes():
    run = Path(__file__).with_name("run.py")
    done = subprocess.run([sys.executable, str(run), "--check"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert "check ok" in done.stdout
