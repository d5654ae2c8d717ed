"""Run manifests: one JSON document telling a run's full story.

A :class:`RunManifest` captures everything needed to reproduce and audit
one streaming run — the plan and its bucket allocation, the cost
parameters, per-relation event counters, per-epoch reports and
reconfigurations from live runs, the full metrics-registry snapshot,
and the git SHA of the code that ran. A sharded run is one walk, so its
counters are the run's; how its records landed across shards rides in
``extra["partition"]``.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["RunManifest", "current_git_sha"]

MANIFEST_VERSION = 1


def current_git_sha(cwd: str | Path | None = None) -> str | None:
    """The repository HEAD SHA, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=5.0, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _relations_dict(counters) -> dict[str, dict[str, int]]:
    """Per-relation event counts of a ``CostCounters``, JSON-shaped."""
    return {
        rel.label(): {
            "arrivals_intra": c.arrivals_intra,
            "arrivals_flush": c.arrivals_flush,
            "evictions_intra": c.evictions_intra,
            "evictions_flush": c.evictions_flush,
        }
        for rel, c in sorted(counters.relations.items(),
                             key=lambda item: item[0].label())
    }


@dataclass
class RunManifest:
    """A serializable record of one run; build with :meth:`collect`."""

    created_unix: float
    git_sha: str | None = None
    plan: dict | None = None
    configuration: str | None = None
    buckets: dict[str, int] = field(default_factory=dict)
    params: dict[str, float] = field(default_factory=dict)
    queries: list[str] = field(default_factory=list)
    n_records: int = 0
    n_epochs: int = 0
    costs: dict[str, float] = field(default_factory=dict)
    relations: dict[str, dict] = field(default_factory=dict)
    epochs: list[dict] = field(default_factory=list)
    reconfigurations: list[dict] = field(default_factory=list)
    #: Host + native-kernel diagnostics (platform, compiler, per-kernel
    #: availability and compile errors) from
    #: :func:`repro.native.machine_info` — the record of whether this
    #: run's fast paths actually ran natively, and if not, why.
    machine: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @classmethod
    def collect(cls, report=None, *, plan=None, queries=None,
                buckets=None, registry=None, epoch_reports=None,
                reconfigurations=None,
                created_unix: float | None = None,
                git_sha: str | None | bool = True,
                extra: dict | None = None) -> "RunManifest":
        """Assemble a manifest from whichever run pieces exist.

        report:
            A :class:`~repro.gigascope.runtime.RunReport` (supplies
            counters, costs, configuration, record/epoch totals).
        plan:
            The :class:`~repro.core.optimizer.Plan` that was executed
            (supplies the allocation when ``buckets`` is not given).
        registry:
            The run's :class:`~repro.observability.MetricsRegistry`;
            snapshotted whole into ``metrics``.
        epoch_reports / reconfigurations:
            From :class:`LiveStreamSystem` incremental runs.
        git_sha:
            ``True`` (default) probes ``git rev-parse HEAD``; pass a
            string to pin it or ``None``/``False`` to skip the probe.
        """
        manifest = cls(created_unix=(created_unix if created_unix is not None
                                     else time.time()))
        if git_sha is True:
            manifest.git_sha = current_git_sha()
        elif git_sha:
            manifest.git_sha = git_sha
        if plan is not None:
            manifest.plan = {
                "algorithm": plan.algorithm,
                "predicted_cost": plan.predicted_cost,
                "predicted_flush_cost": plan.predicted_flush_cost,
                "planning_seconds": plan.planning_seconds,
                "rendered": str(plan),
            }
            manifest.configuration = str(plan.configuration)
            if buckets is None:
                buckets = plan.allocation.buckets
        if buckets is not None:
            manifest.buckets = {rel.label(): int(b)
                                for rel, b in buckets.items()}
        if report is not None:
            result = report.result
            manifest.configuration = str(result.counters.configuration)
            manifest.params = {"probe_cost": report.params.probe_cost,
                               "evict_cost": report.params.evict_cost}
            manifest.n_records = result.n_records
            manifest.n_epochs = result.n_epochs
            manifest.costs = {
                "intra": report.intra_cost.total,
                "flush": report.flush_cost.total,
                "total": report.total_cost,
                "per_record": report.per_record_cost,
            }
            manifest.relations = _relations_dict(result.counters)
            if queries is None:
                queries = report.queries
        if queries is not None:
            manifest.queries = [str(q) for q in queries]
        if epoch_reports:
            manifest.epochs = [
                {"epoch": r.epoch, "records": r.records,
                 "intra_cost": r.intra_cost, "flush_cost": r.flush_cost,
                 "predicted_cost": r.predicted_cost,
                 "configuration": str(r.configuration)}
                for r in epoch_reports
            ]
        if reconfigurations:
            manifest.reconfigurations = [
                {"epoch": epoch, "configuration": str(config)}
                for epoch, config in reconfigurations
            ]
        if registry is not None:
            manifest.metrics = registry.to_dict()
        if extra:
            manifest.extra = dict(extra)
        try:
            from repro.native import machine_info
            manifest.machine = machine_info()
        except Exception:  # pragma: no cover - diagnostics best-effort
            manifest.machine = {}
        return manifest

    def to_dict(self) -> dict:
        return {
            "manifest_version": MANIFEST_VERSION,
            "created_unix": self.created_unix,
            "git_sha": self.git_sha,
            "plan": self.plan,
            "configuration": self.configuration,
            "buckets": self.buckets,
            "params": self.params,
            "queries": self.queries,
            "n_records": self.n_records,
            "n_epochs": self.n_epochs,
            "costs": self.costs,
            "relations": self.relations,
            "epochs": self.epochs,
            "reconfigurations": self.reconfigurations,
            "machine": self.machine,
            "metrics": self.metrics,
            "extra": self.extra,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent,
                          allow_nan=True, sort_keys=False)

    def write(self, path: str | Path) -> Path:
        """Serialize to ``path`` (parent directories created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path
