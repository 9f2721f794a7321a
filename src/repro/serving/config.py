"""Tuning knobs of the serving layer (constructor args + ``REPRO_SERVE_*``).

Precedence per knob: explicit constructor/CLI value > environment
variable > dataclass default.  ``docs/serving.md`` documents every env
var.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional

from ..resilience import RetryPolicy

#: Environment-variable prefix for every serving knob.
ENV_PREFIX = "REPRO_SERVE_"


def _env_value(name: str, cast, default):
    """``REPRO_SERVE_<name>`` cast through *cast*, else *default*."""
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None or raw == "":
        return default
    try:
        return cast(raw)
    except ValueError:
        raise ValueError(
            f"invalid {ENV_PREFIX + name}={raw!r}: expected {cast.__name__}"
        ) from None


#: ``REPRO_SERVE_<name>`` -> (field, cast), per config class.
_SERVING_ENV = {
    "MAX_BATCH": ("max_batch_size", int),
    "QUEUE": ("max_queue", int),
    "CACHE": ("cache_size", int),
    "TIMEOUT_S": ("timeout_s", float),
    "HOST": ("host", str),
    "PORT": ("port", int),
}
_FLEET_ENV = {
    "REPLICAS": ("replicas", int),
    "ROUTER": ("router", str),
    "EJECT_AFTER": ("eject_after", int),
    "PROBE_AFTER": ("probe_after", int),
}


def _from_env(cls, table, overrides):
    """*cls* built from the ``REPRO_SERVE_*`` vars in *table*, then *overrides*.

    A ``REPRO_SERVE_*`` variable that no config class reads is an
    operator error (a typo, or a knob that no longer exists) and raises
    :class:`ValueError` rather than being silently ignored.
    """
    unknown = sorted(
        key
        for key in os.environ
        if key.startswith(ENV_PREFIX)
        and key[len(ENV_PREFIX):] not in _SERVING_ENV
        and key[len(ENV_PREFIX):] not in _FLEET_ENV
    )
    if unknown:
        raise ValueError(
            f"unknown environment variable(s) {', '.join(unknown)}: no serving "
            "setting reads them (docs/serving.md lists every REPRO_SERVE_* knob)"
        )
    config = cls(
        **{
            field: _env_value(name, cast, getattr(cls, field))
            for name, (field, cast) in table.items()
        }
    )
    supplied = {k: v for k, v in overrides.items() if v is not None}
    return replace(config, **supplied) if supplied else config


@dataclass(frozen=True)
class ServingConfig:
    """All tunables of one serving service instance.

    ``max_batch_size`` doubles as the fixed forward-pass row count
    (``Sequential.predict(pad_to=...)``): every batch is padded to this
    many rows so responses are bitwise-independent of how requests got
    grouped into batches.
    """

    max_batch_size: int = 32
    max_queue: int = 256
    cache_size: int = 4096
    timeout_s: float = 5.0
    host: str = "127.0.0.1"
    port: int = 8321
    retry_attempts: int = 3
    retry_base_delay_s: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.retry_attempts < 1:
            raise ValueError("retry_attempts must be >= 1")

    @classmethod
    def from_env(cls, **overrides) -> "ServingConfig":
        """Config from ``REPRO_SERVE_*`` env vars, then *overrides*.

        Override values of ``None`` mean "not given" and fall through
        to the environment/default, so CLI flags plug in directly.
        """
        return _from_env(cls, _SERVING_ENV, overrides)

    def retry_policy(self, timeout_s: Optional[float] = None) -> RetryPolicy:
        """The :class:`RetryPolicy` guarding swap/load operations."""
        return RetryPolicy(
            max_attempts=self.retry_attempts,
            base_delay_s=self.retry_base_delay_s,
            timeout_s=timeout_s,
            seed=self.seed,
        )


@dataclass(frozen=True)
class FleetConfig:
    """Tunables of a replica fleet (:class:`repro.serving.fleet.FleetService`).

    Layered on top of :class:`ServingConfig` (which still governs each
    replica's scheduler, cache, and timeouts); the fleet knobs cover
    pool size, routing, and replica health.
    """

    replicas: int = 2
    router: str = "least_loaded"
    eject_after: int = 3
    probe_after: int = 8

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.eject_after < 1:
            raise ValueError("eject_after must be >= 1")
        if self.probe_after < 1:
            raise ValueError("probe_after must be >= 1")

    @classmethod
    def from_env(cls, **overrides) -> "FleetConfig":
        """Config from ``REPRO_SERVE_*`` env vars, then *overrides*.

        Same precedence rules as :meth:`ServingConfig.from_env`:
        explicit non-None overrides beat the environment, which beats
        the dataclass defaults.
        """
        return _from_env(cls, _FLEET_ENV, overrides)
