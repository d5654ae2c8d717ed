"""Every script in ``examples/`` runs to completion.

Each runs as its own subprocess, the way a reader would run it, against
this checkout's ``src``. ``live_pipeline.py`` also pins the drift
response of the re-plan rule: one re-plan, landing at the first epoch
after the scan starts, cheaper than never re-planning.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: ``live_pipeline.py``'s cost per record with the rule never firing.
NO_REPLAN_COST = 26.335
#: The same stream under the sketch-drift controller the rule replaced
#: (re-plans at epochs 2, 4, 7 and 9).
CONTROLLER_COST = 24.421


def run_example(path: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_all_six_examples_are_collected():
    assert len(EXAMPLES) == 6


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path):
    output = run_example(path)
    if path.stem == "live_pipeline":
        assert "re-plans: 1\n" in output
        assert re.findall(r"from epoch (\d+):", output) == ["7"]
        cost = float(re.search(r"cost/record over the run: ([\d.]+)",
                               output).group(1))
        assert cost <= 1.01 * CONTROLLER_COST
        assert cost < NO_REPLAN_COST
