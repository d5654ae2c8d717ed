"""Multi-tenant query service over the live (push-based) runtime.

The paper's core economy — many aggregation queries sharing one LFTA
memory budget, with phantoms amortizing work across them — is a
multi-tenancy story. This package turns the one-shot runtimes into a
long-running service:

* :class:`~repro.service.registry.QueryRegistry` — tenants register and
  retire group-by queries at runtime; tenants sharing a group-by share
  one physical table (the multi-tenant sharing win).
* :class:`~repro.service.admission.AdmissionPolicy` /
  :func:`~repro.service.admission.check_admission` — every registration
  is priced against the global LFTA budget, optional per-tenant quotas,
  and an optional predicted-cost SLO (the planner's scalar Eq. 7 on three
  candidate space splits); rejections raise a typed
  :class:`~repro.errors.AdmissionError` naming the binding constraint.
* :class:`~repro.service.replan.IncrementalReplanner` — re-optimizes on
  registry or workload change with GS, skipping
  planning entirely when the distinct group-by set and statistics are
  unchanged (e.g. a second tenant joining an existing table).
* :class:`~repro.service.service.StreamService` — the session layer:
  ingest, per-tenant answers and metrics, drift re-planning inherited
  from the live system, and checkpoints that carry the registry so
  restarts are transparent to tenants.
* ``repro-serve`` (:mod:`repro.service.serve`) — CLI driving the service
  from a JSON-lines workload file or stdin.

See ``docs/service.md`` for the architecture and failure story.
"""

from repro.errors import AdmissionError
from repro.service.admission import AdmissionPolicy, check_admission
from repro.service.registry import QueryRegistry
from repro.service.replan import IncrementalReplanner
from repro.service.service import StreamService

__all__ = [
    "AdmissionError",
    "AdmissionPolicy",
    "check_admission",
    "IncrementalReplanner",
    "QueryRegistry",
    "StreamService",
]
