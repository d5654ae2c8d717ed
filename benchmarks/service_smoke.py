"""End-to-end smoke of ``repro-serve``: churn, crash, restore, verify.

Boots the real CLI as subprocesses against a generated workload:

1. **Phase one** registers two tenants, streams half the data, registers
   a third tenant mid-epoch, streams on, registers a fourth and
   checkpoints with that registration still pending: the checkpoint is
   the boundary that plans it. The process then exits — from the
   service's point of view, a kill: everything after the checkpoint is
   lost.
2. **Phase two** boots a fresh process with ``--resume``, retires a
   tenant mid-run, streams the rest, and dumps per-tenant answers.
3. The answers are checked against an offline one-shot
   :func:`~repro.gigascope.engine.simulate` oracle of the full stream,
   windowed to each tenant's activation epochs — which are known
   exactly, because the workload places every register/retire at a
   chosen point of the epoch timeline.

Each phase also sends one malformed push ahead of the valid push of the
same records: float attribute values in phase one, a NaN timestamp
mid-batch in phase two. Each must get an ``error`` event naming its line
and change nothing, so the oracle check also covers them.

Registry changes are planned at the next boundary call (push, finish,
checkpoint), once per boundary whose physical set changed: each phase's
last manifest must count exactly those plans in ``service.replans``.

Exits non-zero on any mismatch. Used by the gating CI ``service-smoke``
job::

    PYTHONPATH=src python benchmarks/service_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro.core.queries import AggregationQuery
from repro.gigascope.engine import simulate
from repro.gigascope.records import StreamSchema
from repro.workloads import make_group_universe, uniform_dataset

SCHEMA = StreamSchema(("A", "B", "C", "D"))
EPOCH = 2.0
MEMORY = 800.0
ROOT = Path(__file__).resolve().parent.parent


def make_dataset():
    universe = make_group_universe(SCHEMA, (8, 24, 48, 90), seed=7)
    return uniform_dataset(universe, 6000, duration=9.0, seed=5)


def push_op(dataset, start, stop) -> str:
    return json.dumps({
        "op": "push",
        "columns": {a: dataset.columns[a][start:stop].tolist()
                    for a in SCHEMA.attributes},
        "timestamps": dataset.timestamps[start:stop].tolist(),
    })


def float_push_op(dataset, start, stop) -> str:
    """A push whose ``A`` column holds non-integer values."""
    line = json.loads(push_op(dataset, start, stop))
    line["columns"]["A"] = [a + 0.7 for a in line["columns"]["A"]]
    return json.dumps(line)


def nan_push_op(dataset, start, stop) -> str:
    """A push with a NaN timestamp in the middle of the batch."""
    line = json.loads(push_op(dataset, start, stop))
    line["timestamps"][(stop - start) // 2] = float("nan")
    return json.dumps(line)


def check_refused(events: list[dict], lines: list[str],
                  bad: int) -> None:
    """Exactly one error event, naming line ``bad`` (0-based)."""
    errors = [e for e in events if e["event"] == "error"]
    assert [e["line"] for e in errors] == [bad + 1], errors
    print(f"refused line {bad + 1}: {errors[0]['message']}")


def op(**fields) -> str:
    return json.dumps(fields)


def run_serve(workload_path: Path, *extra_args: str) -> list[dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.service.serve",
         str(workload_path), *extra_args],
        capture_output=True, text=True, env=env, timeout=300)
    if proc.returncode != 0:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"repro-serve exited {proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.strip()]


def oracle_answers(dataset, group_by: str) -> dict[int, dict[str, float]]:
    query = AggregationQuery(AttributeSet.parse(group_by),
                             epoch_seconds=EPOCH)
    result = simulate(dataset, Configuration.flat([query.group_by]),
                      {query.group_by: 64}, EPOCH)
    return {
        epoch: {",".join(map(str, group)): value
                for group, value in answer.items()}
        for epoch, answer in result.hfta.all_answers(query).items()
    }


def replans(manifest_dir: Path) -> int:
    """``service.replans`` in the phase's last manifest."""
    last = sorted(manifest_dir.glob("manifest-*.json"))[-1]
    counters = json.loads(last.read_text())["metrics"]["counters"]
    return counters.get("service.replans", 0)


def main() -> int:
    dataset = make_dataset()
    n = len(dataset)
    # Cuts chosen mid-epoch: the stream spans epochs 0..4 over 9 s.
    cut_mid = int(np.searchsorted(dataset.timestamps, 2.8))   # epoch 1
    cut_half = int(np.searchsorted(dataset.timestamps, 4.6))  # epoch 2
    cut_late = int(np.searchsorted(dataset.timestamps, 6.9))  # epoch 3
    late_start = 2    # registered during epoch 1 -> active from 2
    tail_start = 3    # registered during epoch 2 -> active from 3
    leaver_end = 4    # retired during epoch 3 -> inactive from 4

    workdir = Path(tempfile.mkdtemp(prefix="service-smoke-"))
    checkpoint = workdir / "svc.ckpt"
    answers_path = workdir / "answers.json"

    phase1 = workdir / "phase1.jsonl"
    lines = [
        op(op="register", tenant="steady", group_by="AB"),
        op(op="register", tenant="leaver", group_by="BC"),
        push_op(dataset, 0, cut_mid),
        op(op="register", tenant="late", group_by="CD"),
        float_push_op(dataset, cut_mid, cut_half),
        push_op(dataset, cut_mid, cut_half),
        op(op="register", tenant="tail", group_by="BD"),
        op(op="checkpoint", path=str(checkpoint)),
    ]
    phase1.write_text("\n".join(lines) + "\n")
    events = run_serve(phase1, "--attributes", "A,B,C,D",
                       "--memory", str(MEMORY),
                       "--epoch-seconds", str(EPOCH),
                       "--manifest-dir", str(workdir / "phase1"))
    assert any(e["event"] == "checkpointed" for e in events), events
    check_refused(events, lines, 4)
    # Boundaries whose set changed: the first push ({AB, BC}), the
    # refused push after ``late`` registered, the checkpoint after
    # ``tail`` did.
    planned = replans(workdir / "phase1")
    assert planned == 3, f"phase 1 made {planned} plans, not 3"
    print(f"phase 1: {len(events)} events, checkpoint written")
    # The process exits here; state after the checkpoint is lost.

    phase2 = workdir / "phase2.jsonl"
    lines = [
        push_op(dataset, cut_half, cut_late),
        op(op="retire", tenant="leaver"),
        nan_push_op(dataset, cut_late, n),
        push_op(dataset, cut_late, n),
        op(op="finish"),
    ]
    phase2.write_text("\n".join(lines) + "\n")
    events = run_serve(phase2, "--resume", str(checkpoint),
                       "--answers-json", str(answers_path),
                       "--manifest-dir", str(workdir / "phase2"))
    assert any(e["event"] == "resumed" for e in events), events
    check_refused(events, lines, 2)
    # ``tail``'s plan came staged in the checkpoint; the one change left
    # is the retirement, planned at the refused push after it.
    planned = replans(workdir / "phase2")
    assert planned == 1, f"phase 2 made {planned} plans, not 1"
    print(f"phase 2: {len(events)} events, resumed from checkpoint")

    answers = json.loads(answers_path.read_text())
    windows = {
        ("steady", "AB"): (0, 5),
        ("leaver", "BC"): (0, leaver_end),
        ("late", "CD"): (late_start, 5),
        ("tail", "BD"): (tail_start, 5),
    }
    failures = 0
    for (tenant, group_by), (start, end) in windows.items():
        oracle = oracle_answers(dataset, group_by)
        expected = {str(epoch): answer for epoch, answer in oracle.items()
                    if start <= epoch < end}
        got = answers.get(tenant, {}).get(group_by)
        if got == expected:
            print(f"ok: {tenant}/{group_by} epochs "
                  f"[{start}, {end}) match the offline oracle")
        else:
            failures += 1
            got_epochs = sorted(got) if got else None
            print(f"MISMATCH: {tenant}/{group_by} expected epochs "
                  f"{sorted(expected)}, got {got_epochs}",
                  file=sys.stderr)
    if failures:
        raise SystemExit(f"{failures} tenant window(s) disagree with "
                         "the oracle")
    print("service smoke passed: crash/restore invisible to tenants")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
