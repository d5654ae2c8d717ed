"""Write the golden paper outputs that ``test_golden.py`` compares against.

Runs ``repro-experiments run all`` (the reduced-scale reproduction of
every table and figure), replaces the wall-clock fields with placeholders
and writes the result to ``tests/experiments/golden/run_all.txt``::

    PYTHONPATH=src python tests/experiments/regenerate_golden.py

Run it only when a change is meant to move paper outputs, and read the
diff of the golden file in review: it is the change's effect on every
reproduced number.
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "run_all.txt"

_FINISHED = re.compile(r"^\[(\S+) finished in [\d.]+s\]$")


def run_all() -> str:
    """Everything ``repro-experiments run all`` prints."""
    from repro.experiments.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["run", "all"]) == 0
    return out.getvalue()


def normalise(text: str) -> str:
    """``text`` with its wall-clock fields replaced by placeholders.

    Those are each experiment's ``finished in`` line and the measured
    milliseconds of the ``timing`` table (its memory column stays).
    """
    lines = []
    in_timing = False
    for line in text.splitlines():
        finished = _FINISHED.match(line)
        if finished:
            in_timing = False
            line = f"[{finished.group(1)} finished in <s>]"
        elif line.startswith("== timing:"):
            in_timing = True
        elif in_timing and line and set(line) <= {"-", " "}:
            line = "<rule>"
        elif in_timing and re.match(r"^\s*\d+(\s+[\d.]+)+$", line):
            memory, *times = line.split()
            line = "  ".join([memory] + ["<ms>"] * len(times))
        lines.append(line)
    return "\n".join(lines) + "\n"


def sections(text: str) -> dict[str, str]:
    """Experiment id -> its block, from its ``==`` title to its
    ``finished`` line."""
    blocks: dict[str, str] = {}
    current: list[str] = []
    for line in text.splitlines():
        if not line and not current:
            continue
        current.append(line)
        if line.startswith("[") and " finished in " in line:
            blocks[line[1:].split(" ", 1)[0]] = "\n".join(current) + "\n"
            current = []
    return blocks


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(normalise(run_all()))
    print(f"wrote {GOLDEN}")
