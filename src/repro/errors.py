"""Exception hierarchy for the ``repro`` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SchemaError(ReproError):
    """An attribute name or attribute set is inconsistent with the schema."""


class ConfigurationError(ReproError):
    """A configuration forest is structurally invalid.

    Examples: a child whose attributes are not a strict subset of its
    parent's, a leaf that is not a user query, or a relation that appears
    twice.
    """


class NotationError(ReproError):
    """The textual configuration notation could not be parsed."""


class AllocationError(ReproError):
    """A space allocation request cannot be satisfied.

    Raised when the memory budget is too small to give every instantiated
    relation at least one bucket, or when an allocator is asked to handle a
    configuration it does not support.
    """


class StatisticsError(ReproError):
    """Required per-relation statistics (group counts, ...) are missing."""


class WorkloadError(ReproError):
    """A workload generator was given infeasible parameters."""


class NativeLibraryError(ReproError):
    """The native library could not be built or loaded.

    A C compiler is an install requirement, like numpy: the LFTA walk,
    the partition hash, the statistics pass and the sketch update have
    no other body. Raised at the first use of any of them; the message
    carries the compiler's diagnostic on one line.
    """


class CheckpointError(ReproError):
    """A live-run checkpoint could not be written or restored.

    Raised on unreadable files, wrong magic, or a snapshot whose
    ``checkpoint_version`` this code does not understand.
    """


class AdmissionError(ReproError):
    """A tenant's query was refused by the service's admission control.

    The message names the *binding constraint* — the check that failed —
    so operators can tell an exhausted global LFTA budget apart from a
    per-tenant quota or a cost-SLO violation. Admission is all-or-nothing:
    a rejected registration leaves the registry, the plan, and every
    already-admitted tenant untouched.

    Attributes
    ----------
    constraint:
        Which limit bound: ``"global-memory"``, ``"tenant-quota"`` or
        ``"cost-slo"``.
    tenant:
        The tenant whose registration was refused.
    required / limit:
        The demanded and available amounts in the constraint's own unit
        (allocation units for space constraints, cost per record for the
        SLO), when known.
    """

    def __init__(self, message: str, *, constraint: str,
                 tenant: str | None = None,
                 required: float | None = None,
                 limit: float | None = None):
        super().__init__(message)
        self.constraint = constraint
        self.tenant = tenant
        self.required = required
        self.limit = limit
