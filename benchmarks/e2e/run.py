"""The repo's end-to-end benchmark: records in -> answers out, four workloads.

    python3 benchmarks/e2e/run.py                       # all four, seed 1
    python3 benchmarks/e2e/run.py --workload highcard_live --trace
    python3 benchmarks/e2e/run.py --check               # smoke, < 20 s
    python3 benchmarks/e2e/run.py --repeat 10           # spreads vs bounds

With ``--workload`` the run happens in this (fresh) process and its last
line of standard output is one JSON object, ``{"correct", "attempted",
"failed", "metrics"}`` — the contract ``BENCHMARK.json`` describes.
Without it, every workload runs in a subprocess of its own.

A run: compile the kernels; set up at least three times (generate the
inputs from the seed, measure statistics, plan, warm up on a fifth of the
stream) and keep the median set-up time; run closed-loop passes for
``--seconds`` and report medians, checking the last pass's answers
against the oracle outside every timed region; with ``--trace`` run
further passes with spans around every layer.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Everything the benchmark writes (kernel cache, checkpoints, spans)
#: stays here, inside the checkout.
WORK = ROOT / ".bench_work"
#: Set-up is repeated (its median is ``setup_s``): at least three times,
#: and for quick set-ups until four seconds are spent or nine are done.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 9, 4.0
WORKLOAD_NAMES = ("netflow_batch", "highcard_live", "service_churn",
                  "netflow_sharded")
clock = time.perf_counter


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the passes measure (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add the traced pass and the per-layer table")
    parser.add_argument("--check", action="store_true",
                        help="smoke mode: tiny sizes, asserts every metric "
                             "is printed, the oracle passes, coverage sane")
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="run the full set N times (seed, seed+1, ...) "
                             "and print each metric's spread vs its bound")
    parser.add_argument("--out", type=Path,
                        help="with --repeat: also write the values here")
    parser.add_argument("--size", choices=("full", "check"), default="full",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def enter_checkout() -> None:
    """Make ``repro`` importable and keep temp files in the checkout."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"error: {ROOT / 'src' / 'repro'} not found: the "
                         "benchmark runs from a checkout of the repository")
    source = str(ROOT / "src")
    sys.path.insert(0, source)
    # Shard workers and the kernel build inherit both.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [source] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    scratch = WORK / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = None


def provenance(seed: int, machine: dict) -> dict:
    def git(*args):
        try:
            # The ceiling keeps git from wandering above a checkout that
            # is not a repository.
            out = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True,
                timeout=10, env={**os.environ,
                                 "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    status = git("status", "--porcelain")
    return {"git_sha": git("rev-parse", "HEAD"),
            "git_dirty": None if status is None else bool(status),
            "nproc": os.cpu_count(), "seed": seed,
            "python": platform.python_version(),
            "numpy": machine.get("numpy"),
            "machine": machine}


def peak_rss_mb() -> float:
    """High-water mark of this process, set-up included: on the netflow
    workloads generating the trace is the peak, on the other two the
    HFTA state and the rendered answers are."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Operations attempted and failed, over everything a run does."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += int(failed)

    def add_pass(self, result) -> None:
        self.add(result.ops.calls + result.checks[0],
                 result.ops.raised + result.checks[1])
        self.errors.extend(result.ops.errors)


def set_up_repeatedly(cls, args):
    """The workload of the last set-up, every set-up's seconds, and the
    machine's speed while they ran."""
    from machine import MachineSpeed

    seconds, workload, speed = [], None, MachineSpeed()
    speed.sample()
    began_all = clock()
    while len(seconds) < MIN_SETUPS or (
            len(seconds) < MAX_SETUPS
            and clock() - began_all < SETUP_SECONDS):
        workload = None  # release the previous inputs first
        gc.collect()
        began = clock()
        workload = cls(args.seed, args.size == "check", WORK)
        workload.set_up()
        seconds.append(clock() - began)
        speed.sample(force=True)
    return workload, seconds, speed


def measure(workload, seconds: float, tally: Tally):
    """Untraced passes for ``seconds``; the last one oracle-checked.

    Returns the passes, the fingerprint (digest, cost per record) every
    pass of this seed has to reproduce, the peak RSS and the machine's
    speed, read between passes."""
    from machine import MachineSpeed
    from spans import NullTracer

    untraced = NullTracer()
    passes, fingerprint, speed = [], None, MachineSpeed()
    speed.sample()
    began = clock()
    while not passes or clock() - began < seconds:
        if passes:
            passes[-1].state = None  # only the last pass is verified
        result = workload.run_pass(untraced)
        if fingerprint is None:
            fingerprint = (result.digest, result.cost_per_record)
        else:
            tally.add(1, (result.digest, result.cost_per_record)
                      != fingerprint)
        result.digest = None  # compared; a digest can be every answer
        tally.add_pass(result)
        passes.append(result)
        speed.sample()
    speed.sample(force=True)
    peak_mb = peak_rss_mb()
    tally.add(*workload.verify(passes[-1]))
    passes[-1].state = None
    gc.collect()  # the oracle's garbage must not weigh on what follows
    return passes, fingerprint, peak_mb, speed


def trace(workload, seconds: float, tally: Tally, fingerprint,
          untraced_wall_s: float, machine: dict):
    """Traced passes; the per-layer table and the missing targets.

    One traced pass is as noisy as any single pass, so they run for a
    quarter of the measuring time and each metric reports its median."""
    from metrics import layer_metrics, median
    from spans import Tracer

    ingest_kernel = int(any(
        status["available"] for name, status
        in machine.get("kernels", {}).items() if "ingest" in name))
    tables = []
    began = clock()
    while not tables or clock() - began < seconds / 4:
        tracer = Tracer()
        with tracer.installed(), tracer.span("bench.pass"):
            traced = workload.run_pass(tracer)
        traced.state = None
        tally.add(1, (traced.digest, traced.cost_per_record) != fingerprint)
        tally.add_pass(traced)
        tables.append(layer_metrics(
            tracer, {**traced.facts, "native_ingest.available": ingest_kernel},
            stats_s=workload.stats_s, traced_wall_s=traced.wall_s,
            untraced_wall_s=untraced_wall_s))
    layers = {name: None if any(t[name] is None for t in tables)
              else median(t[name] for t in tables) for name in tables[0]}
    (WORK / f"spans-{workload.name}.json").write_text(json.dumps(
        {"workload": workload.name, "seed": workload.seed,
         "missing_target": tracer.missing, "per_layer": layers,
         "traced_passes": len(tables), "spans": tracer.span_rows()}))
    return layers, tracer.missing


def summarise(setup_s, setup_scale: float, passes, scale: float,
              peak_mb: float, tally: Tally) -> dict:
    """End-to-end metrics of a run: name -> (value, samples).

    Times are reference time: measured seconds times ``setup_scale``
    (set-up) or ``scale`` (passes); see :mod:`machine`."""
    from metrics import median, percentile

    plan_ms = [ms for p in passes for ms in p.plan_ms]
    measured = {
        "setup_s": (median(setup_s) * setup_scale, len(setup_s)),
        "records_per_s": (median(p.records / p.wall_s for p in passes)
                          / scale, len(passes)),
        "plan_ms": (median(plan_ms) * scale, len(plan_ms)),
        "peak_rss_mb": (peak_mb, 1),
        "cost_per_record": (passes[-1].cost_per_record, len(passes)),
        "failed_share": (100.0 * tally.failed / tally.attempted,
                         tally.attempted),
    }
    # Latency percentiles pool the samples of every pass.
    for stem, samples in (
            ("epoch_close", [ms for p in passes for ms in p.close_ms]),
            ("register", [ms for p in passes for ms in p.register_ms])):
        if samples:
            measured[f"{stem}_p50_ms"] = (percentile(samples, 50) * scale,
                                          len(samples))
            measured[f"{stem}_p95_ms"] = (percentile(samples, 95) * scale,
                                          len(samples))
    recovery = [p.recovery_s for p in passes if p.recovery_s is not None]
    if recovery:
        measured["recovery_s"] = (median(recovery) * scale, len(recovery))
    return measured


def run_one(args) -> int:
    enter_checkout()
    from repro.native import machine_info

    from machine import REFERENCE_S
    from metrics import END_TO_END, EVERY_WORKLOAD, PER_LAYER, median
    from workloads import WORKLOADS

    seconds = args.seconds if args.seconds is not None \
        else float(benchmark_json()["run_seconds"])
    began = clock()
    machine = machine_info()  # compiles and loads every kernel
    build_s = clock() - began
    where = provenance(args.seed, machine)
    name = args.workload
    print(f"# e2e benchmark  workload={name} seed={args.seed} "
          f"seconds={seconds:g} trace={args.trace} size={args.size}")
    print("#provenance " + json.dumps(where, sort_keys=True))

    workload, setup_s, setup_speed = set_up_repeatedly(WORKLOADS[name], args)
    gc.collect()
    gc.freeze()
    tally = Tally()
    passes, fingerprint, peak_mb, speed = measure(workload, seconds, tally)
    walls = sorted(p.wall_s for p in passes)
    layers = missing = None
    if args.trace:
        layers, missing = trace(workload, seconds, tally, fingerprint,
                                median(walls), machine)
    measured = summarise(setup_s, setup_speed.to_reference, passes,
                         speed.to_reference, peak_mb, tally)

    print(f"# build {build_s:.3f} s, {len(setup_s)} set-ups (median "
          f"{median(setup_s):.4f} s), {len(passes)} passes of "
          f"{passes[-1].records} records (wall min {walls[0]:.4f} "
          f"median {median(walls):.4f} max {walls[-1]:.4f} s)")
    print(f"# machine: fixed task {setup_speed.task_s * 1e3:.2f} ms during "
          f"set-up, {speed.task_s * 1e3:.2f} ms between passes (reference "
          f"{REFERENCE_S * 1e3:.2f} ms); time metrics below are reference "
          f"time = measured x {setup_speed.to_reference:.3f} (set-up), "
          f"x {speed.to_reference:.3f} (passes)")
    for metric, (unit, _) in END_TO_END.items():
        if metric in measured:
            value, samples = measured[metric]
            print(f"{name:16s} {metric:38s} {value:16.6f} {unit:12s} "
                  f"n={samples}")
    if layers is not None:
        for metric, (unit, _) in PER_LAYER.items():
            if metric in END_TO_END:
                # Measured untraced, printed above; 0 where the workload
                # has no such operation.
                layers[metric] = measured.get(metric, (0.0, 0))[0]
                continue
            value = layers[metric]
            shown = "null (missing_target)" if value is None \
                else f"{value:16.6f}"
            print(f"{name:16s} {metric:38s} {shown:>16s} {unit}")
        for dotted in missing:
            print(f"# missing_target {dotted}")
    for message in tally.errors[:10]:
        print(f"# raised: {message}")

    print("#detail " + json.dumps({
        "workload": name, "seed": args.seed,
        "end_to_end": {metric: {"value": value, "samples": samples,
                                "unit": END_TO_END[metric][0]}
                       for metric, (value, samples) in measured.items()},
        "per_layer": layers, "missing_target": missing,
        "provenance": where, "build_s": build_s,
        "measured": {"setup_s": median(setup_s), "pass_wall_s": median(walls),
                     "to_reference_setup": setup_speed.to_reference,
                     "to_reference_passes": speed.to_reference}},
        sort_keys=True))
    if layers is None:
        metrics = {metric: {"value": measured[metric][0],
                            "unit": END_TO_END[metric][0]}
                   for metric in EVERY_WORKLOAD}
    else:
        # The contract wants numbers: a missing target reads 0 here and
        # is counted in trace.missing_targets (null + note above).
        metrics = {metric: {"value": 0.0 if layers[metric] is None
                            else layers[metric], "unit": unit}
                   for metric, (unit, _) in PER_LAYER.items()}
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


# ----------------------------------------------------------------------
# Every workload, one subprocess each
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, seconds, trace: int, size: str,
              echo: bool = True) -> tuple[int, dict | None]:
    """Run one workload in a fresh process; its exit code and detail."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace), "--size", size]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=900)
    detail = None
    for line in done.stdout.splitlines():
        if line.startswith("#detail "):
            detail = json.loads(line[len("#detail "):])
        elif echo and not line.startswith(("{", "#provenance")):
            print(line)
    if done.returncode != 0 or detail is None:
        sys.stdout.write(done.stdout[-2000:])
        sys.stderr.write(done.stderr[-2000:])
    return done.returncode, detail


def run_all(args, size: str = "full") -> tuple[int, dict]:
    worst, details = 0, {}
    for workload in WORKLOAD_NAMES:
        code, detail = run_child(workload, args.seed, args.seconds,
                                 args.trace, size)
        worst = max(worst, code, 0 if detail else 1)
        if detail:
            details[workload] = detail
    return worst, details


def repeat(args) -> int:
    from metrics import END_TO_END, median, spread

    bounds = {m["name"]: m["bound"] for m in benchmark_json()["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {}
    worst = 0
    for index in range(args.repeat):
        for workload in WORKLOAD_NAMES:
            code, detail = run_child(workload, args.seed + index,
                                     args.seconds, 0, args.size, echo=False)
            worst = max(worst, code, 0 if detail else 1)
            if not detail:
                continue
            for name, entry in detail["end_to_end"].items():
                values.setdefault(workload, {}).setdefault(
                    name, []).append(entry["value"])
            print(f"# set {index + 1}/{args.repeat} {workload} done",
                  flush=True)
    print(f"{'workload':16s} {'metric':22s} {'median':>16s} {'unit':10s} "
          f"{'spread':>8s} {'bound':>6s}")
    for workload, by_name in values.items():
        for name, series in by_name.items():
            if len(series) < 2:
                continue
            bound = bounds.get(name)
            wide = spread(series)
            flag = "" if bound is None else \
                ("  ok" if wide <= bound / 3 else
                 "  within bound" if wide <= bound else "  TOO WIDE")
            print(f"{workload:16s} {name:22s} "
                  f"{median(series):16.6f} "
                  f"{END_TO_END[name][0]:10s} {wide:8.4f} "
                  f"{'' if bound is None else format(bound, '6.2f')}{flag}")
    if args.out:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "repeat": args.repeat, "values": values},
            indent=1))
    return worst


def check(args) -> int:
    """Smoke: tiny sizes, traced, everything named must be printed."""
    from metrics import END_TO_END, EVERY_WORKLOAD, ONLY_ON, PER_LAYER

    problems = []
    document = benchmark_json()
    declared = {m["name"]: m["unit"] for m in document["end_to_end"]}
    if declared != {n: END_TO_END[n][0] for n in EVERY_WORKLOAD}:
        problems.append("BENCHMARK.json end_to_end != metrics.EVERY_WORKLOAD")
    declared = {m["name"]: m["unit"] for m in document["per_layer"]}
    if declared != {n: unit for n, (unit, _) in PER_LAYER.items()}:
        problems.append("BENCHMARK.json per_layer != metrics.PER_LAYER")
    if [w["name"] for w in document["workloads"]] != list(WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads != run.WORKLOAD_NAMES")

    args.trace, args.seconds = 1, 0.3
    code, details = run_all(args, size="check")
    if code:
        problems.append(f"a workload exited {code}")
    for workload in WORKLOAD_NAMES:
        detail = details.get(workload)
        if detail is None:
            problems.append(f"{workload}: no result")
            continue
        expected = {metric for metric in END_TO_END
                    if workload in ONLY_ON.get(metric, WORKLOAD_NAMES)}
        printed = detail["end_to_end"]
        if set(printed) != expected:
            problems.append(f"{workload}: end-to-end metrics "
                            f"{sorted(set(printed) ^ expected)} off")
        if any(not entry["unit"] for entry in printed.values()):
            problems.append(f"{workload}: a metric has no unit")
        if printed["failed_share"]["value"] != 0:
            problems.append(f"{workload}: oracle or an operation failed")
        layers = detail["per_layer"] or {}
        if set(layers) != set(PER_LAYER):
            problems.append(f"{workload}: per-layer metrics "
                            f"{sorted(set(layers) ^ set(PER_LAYER))} off")
        coverage = layers.get("trace.coverage_pct")
        if coverage is None or not 50.0 <= coverage <= 100.0:
            problems.append(f"{workload}: trace.coverage_pct {coverage}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if not problems:
        print("check ok: every metric printed with a unit, oracle passed, "
              "coverage in range")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse(argv)
    if args.workload:
        return run_one(args)
    if args.check:
        return check(args)
    if args.repeat:
        return repeat(args)
    code, details = run_all(args)
    print(f"# {len(details)}/{len(WORKLOAD_NAMES)} workloads reported; "
          f"exit {code}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
