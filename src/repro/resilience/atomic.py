"""The checkpoint primitive: atomic file writes and config fingerprints.

The stage checkpoint store, the deployment loop's state, the streaming
state bundles, the store's engine manifest and the serving artifacts
are written through :func:`atomic_write`; those that depend on a
configuration are bound to it by :func:`config_fingerprint`.  This module imports only the standard
library, so any layer (serving included) can use it without loading
the pipeline's data model.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from typing import Any, Optional

CHECKPOINT_VERSION = 1

#: PipelineConfig fields that cannot change stage outputs; excluded from
#: the fingerprint so e.g. raising the worker count or retry budget does
#: not throw away valid checkpoints.
RESULT_NEUTRAL_FIELDS = frozenset(
    {
        "workers",
        "retry_attempts",
        "retry_base_delay_s",
        "retry_max_delay_s",
        "stage_timeout_s",
    }
)


def config_fingerprint(config: Any, world_key: Optional[str] = None) -> str:
    """SHA-256 fingerprint of *config* (a dataclass) plus *world_key*.

    Only result-affecting fields participate (see
    :data:`RESULT_NEUTRAL_FIELDS`); the store version is mixed in so a
    format bump invalidates old directories by construction.
    """
    if dataclasses.is_dataclass(config):
        fields = dataclasses.asdict(config)
    elif isinstance(config, dict):
        fields = dict(config)
    else:
        raise TypeError(f"cannot fingerprint {type(config).__name__}")
    fields = {
        k: v for k, v in sorted(fields.items()) if k not in RESULT_NEUTRAL_FIELDS
    }
    payload = json.dumps(
        {"version": CHECKPOINT_VERSION, "config": fields, "world": world_key},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def atomic_write(path: str, data: bytes) -> None:
    """Write *data* to *path* via a same-directory temp file + rename."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
