"""Checkpoint/restore for :class:`~repro.gigascope.online.LiveStreamSystem`.

A checkpoint freezes *everything the answers depend on* mid-stream: the
active and historical configurations with their cost counters (the
eras), the HFTA's accumulated partial aggregates, the open epoch's
buffered records (the in-flight LFTA state — tables themselves are
rebuilt per epoch by the engine, so the buffered raw records *are* the
LFTA's recoverable state), the watermark (last accepted timestamp), the
staged plan *and staged query set* (a reconfigure that has not reached
its epoch boundary yet must survive a restart and still land at that
boundary), emitted epoch reports and reconfigurations. Restoring and
replaying the remaining stream therefore reproduces byte-identical
epoch reports and final answers versus an uninterrupted run.

Format: a pickle whose top level is a plain dict carrying a magic
string and ``checkpoint_version`` (currently {version}) ahead of the
state payload, so a reader can reject foreign or future files with a
:class:`~repro.errors.CheckpointError` instead of a pickle traceback.
There is one format and one reader: a file carrying any other version
is rejected with a :class:`~repro.errors.CheckpointError` naming the
version found and the one supported. The ``extra`` payload is an opaque
caller dict: the multi-tenant :class:`~repro.service.StreamService`
stores its query registry, tenant activation windows and admission
configuration there so a restart is transparent to tenants.

The metrics ``registry`` is deliberately *not* serialized (it never
affects answers); re-attach one on restore. Nor is the bound walk
(``LiveStreamSystem.tables``): a restored system gets a new one, bound
at its first close. The re-plan rule's state
rides in the eras; an era from a file written before eras kept their
plan has none, and the rule stays idle until that era's next swap.

Writes are atomic (temp file + rename), so a crash mid-checkpoint
leaves the previous snapshot intact — the property the
``repro-plan --checkpoint-dir`` resume loop relies on.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path

from repro.errors import CheckpointError

__all__ = ["CHECKPOINT_MAGIC", "CHECKPOINT_VERSION", "load_live_checkpoint",
           "read_checkpoint_document", "save_live_checkpoint"]

CHECKPOINT_MAGIC = "repro-live-checkpoint"
CHECKPOINT_VERSION = 5

__doc__ = __doc__.format(version=CHECKPOINT_VERSION)

#: Attributes of ``LiveStreamSystem`` captured verbatim in the snapshot.
_STATE_ATTRS = (
    "schema", "queries", "params", "value_column", "salt_seed", "where",
    "epoch_seconds", "hfta", "eras", "epoch_reports", "reconfigurations",
    "_staged_plan", "_staged_queries", "_pending_cols", "_pending_vals",
    "_pending_times", "_pending_epoch", "_last_time", "records_seen",
)

def save_live_checkpoint(system, path: str | Path,
                         extra: dict | None = None) -> Path:
    """Snapshot a live system to ``path``; returns the written path.

    ``extra`` is an opaque payload stored alongside the system state
    (e.g. the stream service's registry); read it back with
    :func:`read_checkpoint_document`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    state = {name: getattr(system, name) for name in _STATE_ATTRS}
    document = {
        "magic": CHECKPOINT_MAGIC,
        "checkpoint_version": CHECKPOINT_VERSION,
        "state": state,
        "extra": dict(extra) if extra else {},
    }
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            pickle.dump(document, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except (OSError, pickle.PicklingError) as exc:
        tmp.unlink(missing_ok=True)
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") \
            from exc
    return path


def read_checkpoint_document(path: str | Path) -> dict:
    """Read and validate a checkpoint file; returns the full document.

    The returned dict carries ``state`` (the system attributes) and
    ``extra`` (the caller payload).
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            document = pickle.load(handle)
    except FileNotFoundError:
        raise CheckpointError(f"no such checkpoint: {path}") from None
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") \
            from exc
    if not isinstance(document, dict) or \
            document.get("magic") != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"{path} is not a live-stream checkpoint (bad magic)")
    version = document.get("checkpoint_version")
    if not isinstance(version, int) or version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path} has checkpoint_version {version!r}; this code "
            f"reads only version {CHECKPOINT_VERSION}")
    state = document.get("state")
    if not isinstance(state, dict):
        raise CheckpointError(f"{path} has no state payload")
    document.setdefault("extra", {})
    missing = [name for name in _STATE_ATTRS if name not in state]
    if missing:
        raise CheckpointError(
            f"{path} is missing state fields {missing}")
    return document


def _system_from_state(state: dict, registry=None):
    from repro.gigascope.engine import Tables
    from repro.gigascope.online import LiveStreamSystem

    system = LiveStreamSystem.__new__(LiveStreamSystem)
    for name in _STATE_ATTRS:
        setattr(system, name, state[name])
    system.registry, system.tables = registry, Tables()
    return system


def load_live_checkpoint(path: str | Path, registry=None):
    """Rebuild a :class:`LiveStreamSystem` from a snapshot.

    ``registry`` re-attaches the un-serialized metrics registry
    (default: detached).
    """
    document = read_checkpoint_document(path)
    return _system_from_state(document["state"], registry=registry)
