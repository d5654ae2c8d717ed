"""``repro-serve`` — drive a :class:`StreamService` from a workload file.

The workload is JSON lines (a file path, or ``-`` for stdin), one
operation per line::

    {"op": "register", "tenant": "acme", "query": "SELECT ...", \
"expected_groups": 1800}
    {"op": "register", "tenant": "acme", "group_by": "AB"}
    {"op": "push", "columns": {"A": [...], "B": [...]}, \
"timestamps": [...], "values": [...]}
    {"op": "retire", "tenant": "acme", "group_by": "AB"}
    {"op": "checkpoint", "path": "svc.ckpt"}
    {"op": "finish"}

``register`` takes either SQL (``query``) or a bare ``group_by`` (a
count(*) query at ``--epoch-seconds``). Rejections are reported, not
fatal: an over-budget tenant gets a ``rejected`` event naming the
binding constraint and the stream keeps flowing for everyone else. A
line that is not a valid operation (not JSON, an unknown op, a missing
field, a batch that does not match the schema) gets an ``error`` event
with its line number and changes nothing.

One JSON event per operation goes to stdout (``registered``,
``rejected``, ``error``, ``epochs``, ``retired``, ``checkpointed``,
``finished``).
With ``--manifest-dir`` the service writes a
:class:`~repro.observability.RunManifest` for every window of
``--manifest-every`` completed epochs, so a long-running service leaves
an auditable trail of run documents. ``--checkpoint`` +
``--checkpoint-every`` snapshot the full service periodically;
``--resume`` boots from such a snapshot instead of an empty service.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.core.attributes import AttributeSet
from repro.core.queries import AggregationQuery
from repro.core.sql import parse_query
from repro.errors import AdmissionError, ReproError
from repro.gigascope.hfta import QueryAnswer
from repro.gigascope.records import StreamSchema
from repro.service.admission import AdmissionPolicy
from repro.service.service import StreamService

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Run the multi-tenant stream service against a "
                    "JSON-lines workload.")
    parser.add_argument("workload", nargs="?", default="-",
                        help="workload file (JSON lines; '-' = stdin)")
    parser.add_argument("--attributes", default=None, metavar="A,B,C",
                        help="stream schema attributes (required unless "
                             "--resume)")
    parser.add_argument("--memory", type=float, default=40_000,
                        help="global LFTA budget in allocation units")
    parser.add_argument("--epoch-seconds", type=float, default=60.0,
                        help="epoch length for bare group-by "
                             "registrations")
    parser.add_argument("--value-column", default=None,
                        help="value column carried by push batches")
    parser.add_argument("--algorithm", default="gs",
                        help="planning algorithm (default gs)")
    parser.add_argument("--phi", type=float, default=1.0,
                        help="GS sizing parameter")
    parser.add_argument("--tenant-quota", type=float, default=None,
                        help="default per-tenant space quota (units)")
    parser.add_argument("--admission-cost", type=float, default=None,
                        help="predicted cost/record admission ceiling")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="checkpoint path (periodic and for "
                             "pathless checkpoint ops)")
    parser.add_argument("--checkpoint-every", type=int, default=0,
                        metavar="N",
                        help="checkpoint every N completed epochs")
    parser.add_argument("--resume", default=None, metavar="PATH",
                        help="boot from a service checkpoint")
    parser.add_argument("--manifest-dir", default=None, metavar="DIR",
                        help="write a RunManifest per epoch window")
    parser.add_argument("--manifest-every", type=int, default=1,
                        metavar="N", help="manifest window size "
                                          "(completed epochs)")
    parser.add_argument("--answers-json", default=None, metavar="PATH",
                        help="dump per-tenant answers at end of run")
    return parser


def _emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def _parse_op(line: str) -> dict:
    try:
        op = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ReproError(f"not JSON: {exc}") from None
    if not isinstance(op, dict):
        raise ReproError("an operation must be a JSON object")
    return op


def _field(op: dict, name: str):
    """``op[name]``, or a ReproError naming the op and the missing field."""
    if name not in op:
        raise ReproError(f"{op.get('op')} op needs a {name!r} field")
    return op[name]


def _register_query(args, op: dict) -> AggregationQuery:
    if "query" in op:
        parsed = parse_query(op["query"], args.epoch_seconds)
        if parsed.where is not None:
            raise ReproError(
                "repro-serve queries cannot carry WHERE clauses (the "
                "service shares one unfiltered stream)")
        return parsed.query
    return AggregationQuery(AttributeSet.parse(_field(op, "group_by")),
                            epoch_seconds=args.epoch_seconds)


def _answer_jsonable(answer: QueryAnswer) -> dict[str, float]:
    """``{"a,b": value}`` straight from the answer's columns."""
    keys = zip(*(map(str, col.tolist()) for col in answer.columns.values()))
    return dict(zip(map(",".join, keys), answer.array.tolist()))


def _answers_jsonable(service: StreamService) -> dict:
    out: dict = {}
    # Lease owners, not registry tenants: a retired tenant keeps read
    # access to the window it was active for.
    for tenant in sorted({w["tenant"] for w in service.leases()}):
        out[tenant] = {
            label: {str(epoch): _answer_jsonable(answer)
                    for epoch, answer in per_epoch.items()}
            for label, per_epoch in service.answers(tenant).items()
        }
    return out


class _ManifestWriter:
    """Writes one RunManifest per window of completed epochs."""

    def __init__(self, directory: str | None, every: int):
        self.directory = Path(directory) if directory else None
        self.every = max(every, 1)
        self._window_start: int | None = None
        self._pending = 0

    def epochs_completed(self, service: StreamService,
                         reports) -> list[str]:
        if self.directory is None or not reports:
            return []
        if self._window_start is None:
            self._window_start = reports[0].epoch
        self._pending += len(reports)
        written = []
        if self._pending >= self.every:
            last = reports[-1].epoch
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self.directory / \
                f"manifest-{self._window_start:06d}-{last:06d}.json"
            service.manifest().write(path)
            written.append(str(path))
            self._window_start = None
            self._pending = 0
        return written


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.resume:
        service = StreamService.restore(args.resume)
        _emit("resumed", checkpoint=args.resume,
              tenants=service.registry.tenants,
              records_seen=service.live.records_seen
              if service.live else 0)
    else:
        if not args.attributes:
            print("repro-serve: --attributes is required unless "
                  "--resume is given", file=sys.stderr)
            return 2
        schema = StreamSchema(
            tuple(a.strip() for a in args.attributes.split(",")
                  if a.strip()),
            (args.value_column,) if args.value_column else ())
        policy = AdmissionPolicy(
            memory=args.memory, tenant_quota=args.tenant_quota,
            max_cost_per_record=args.admission_cost, phi=args.phi)
        service = StreamService(
            schema, args.memory, policy=policy,
            algorithm=args.algorithm, phi=args.phi,
            value_column=args.value_column)

    manifests = _ManifestWriter(args.manifest_dir, args.manifest_every)
    epochs_since_checkpoint = 0
    stream = (sys.stdin if args.workload == "-"
              else open(args.workload, encoding="utf-8"))
    try:
        for line_no, line in enumerate(stream, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                op = _parse_op(line)
                kind = op.get("op")
                if kind == "register":
                    query = _register_query(args, op)
                    tenant = _field(op, "tenant")
                    service.register(tenant, query,
                                     expected_groups=op.get(
                                         "expected_groups"))
                    _emit("registered", tenant=tenant,
                          group_by=query.group_by.label())
                elif kind == "retire":
                    tenant = _field(op, "tenant")
                    retired = service.retire(tenant, op.get("group_by"))
                    _emit("retired", tenant=tenant,
                          group_bys=[r.group_by.label()
                                     for r in retired])
                elif kind == "push":
                    columns = {name: np.asarray(values)
                               for name, values in
                               _field(op, "columns").items()}
                    values = (np.asarray(op["values"])
                              if "values" in op else None)
                    reports = service.push(
                        columns, _field(op, "timestamps"), values)
                    written = manifests.epochs_completed(service,
                                                         reports)
                    _emit("epochs",
                          completed=[r.epoch for r in reports],
                          records=sum(r.records for r in reports),
                          manifests=written)
                    epochs_since_checkpoint += len(reports)
                    if args.checkpoint and args.checkpoint_every and \
                            epochs_since_checkpoint >= \
                            args.checkpoint_every:
                        service.checkpoint(args.checkpoint)
                        epochs_since_checkpoint = 0
                        _emit("checkpointed", path=args.checkpoint)
                elif kind == "checkpoint":
                    path = op.get("path") or args.checkpoint
                    if not path:
                        raise ReproError(
                            "checkpoint op needs a path (or "
                            "--checkpoint)")
                    service.checkpoint(path)
                    _emit("checkpointed", path=str(path))
                elif kind == "finish":
                    reports = service.finish()
                    written = manifests.epochs_completed(service,
                                                         reports)
                    _emit("finished",
                          completed=[r.epoch for r in reports],
                          manifests=written)
                else:
                    raise ReproError(f"unknown op {kind!r}")
            except AdmissionError as exc:
                _emit("rejected", tenant=exc.tenant,
                      constraint=exc.constraint, required=exc.required,
                      limit=exc.limit, line=line_no, message=str(exc))
            except (ReproError, ValueError) as exc:
                _emit("error", line=line_no, message=str(exc))
    finally:
        if stream is not sys.stdin:
            stream.close()

    reports = service.finish()
    if reports:
        manifests.epochs_completed(service, reports)
        _emit("finished", completed=[r.epoch for r in reports],
              manifests=[])
    if args.answers_json:
        path = Path(args.answers_json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(_answers_jsonable(service),
                                   indent=2, sort_keys=True))
        _emit("answers-written", path=str(path))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
