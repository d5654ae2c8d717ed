"""Resilience: live checkpoints.

:mod:`~repro.resilience.checkpoint` — versioned snapshot/restore for
:class:`~repro.gigascope.online.LiveStreamSystem` (and, through its
``extra`` payload, :class:`~repro.service.StreamService`). A sharded run
has no recovery layer: each shard runs once, and a failing shard raises
:class:`~repro.errors.ShardExecutionError` naming it.

See ``docs/resilience.md`` for the checkpoint format and the shard
failure contract.
"""

from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    load_live_checkpoint,
    read_checkpoint_document,
    save_live_checkpoint,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "load_live_checkpoint",
    "read_checkpoint_document",
    "save_live_checkpoint",
]
