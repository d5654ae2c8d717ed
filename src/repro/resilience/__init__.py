"""Resilience: live checkpoints.

:mod:`~repro.resilience.checkpoint` — versioned snapshot/restore for
:class:`~repro.gigascope.online.LiveStreamSystem` (and, through its
``extra`` payload, :class:`~repro.service.StreamService`). A sharded run
has no recovery layer: it is one walk over every shard, and an error
fails it as one, as it fails an unsharded run.

See ``docs/resilience.md`` for the checkpoint format and the failure
contract.
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
