"""``repro.resilience`` — fault tolerance for the §4.9 deployment loop.

Three cooperating pieces (see ``docs/resilience.md``):

* :mod:`~repro.resilience.retry` — :class:`RetryPolicy` with seeded
  exponential-backoff jitter, per-attempt timeouts, and a
  retryable-exception filter, applied to every pipeline stage;
* :mod:`~repro.resilience.checkpoint` — :class:`CheckpointStore`,
  versioned per-stage JSON/NPZ checkpoints fingerprinted against the
  :class:`~repro.core.config.PipelineConfig` so stale state is never
  resumed;
* :mod:`~repro.resilience.faults` — a deterministic fault-injection
  harness (:class:`FaultPlan`, ``REPRO_FAULTS``) that doubles as the
  test substrate for the other two.

Under the checkpoint store sits :mod:`~repro.resilience.atomic`, the
stdlib-only primitive (``atomic_write``, :func:`config_fingerprint`)
that the repo's on-disk state is written and fingerprinted with;
serving imports it without loading the stage codecs.

``checkpoint``/``codecs`` are imported lazily (PEP 562): they pull in
the dataset/event model, which itself uses :mod:`repro.parallel`, and
``parallel`` needs :func:`repro.resilience.faults.inject` at chunk
boundaries — eager imports here would complete that cycle.
"""

from typing import TYPE_CHECKING

from .atomic import config_fingerprint
from .faults import (
    FAULTS_ENV,
    FatalFault,
    FaultError,
    FaultPlan,
    FaultRecord,
    FaultSpec,
    TransientFault,
    active_plan,
    inject,
    install_plan,
    overridden,
    parse_plan,
    plan_from_env,
    restore_plan,
)
from .retry import (
    DEFAULT_RETRYABLE,
    RetryError,
    RetryPolicy,
    StageTimeout,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .checkpoint import CheckpointError, CheckpointStore
    from .codecs import CodecError, decode_stage, encode_stage

_LAZY = {
    "CheckpointError": ("repro.resilience.checkpoint", "CheckpointError"),
    "CheckpointStore": ("repro.resilience.checkpoint", "CheckpointStore"),
    "CodecError": ("repro.resilience.codecs", "CodecError"),
    "decode_stage": ("repro.resilience.codecs", "decode_stage"),
    "encode_stage": ("repro.resilience.codecs", "encode_stage"),
}


def __getattr__(name: str):
    """Resolve the lazily exported checkpoint/codec names (PEP 562)."""
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


__all__ = [
    "DEFAULT_RETRYABLE",
    "FAULTS_ENV",
    "CheckpointError",
    "CheckpointStore",
    "CodecError",
    "FatalFault",
    "FaultError",
    "FaultPlan",
    "FaultRecord",
    "FaultSpec",
    "RetryError",
    "RetryPolicy",
    "StageTimeout",
    "TransientFault",
    "active_plan",
    "config_fingerprint",
    "decode_stage",
    "encode_stage",
    "inject",
    "install_plan",
    "overridden",
    "parse_plan",
    "plan_from_env",
    "restore_plan",
]
