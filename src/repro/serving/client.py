"""Clients for the serving service: in-process and HTTP.

:class:`ServingClient` drives a :class:`~repro.serving.fleet.FleetService`
directly (no sockets) — the concurrency tests and the in-process load
generator use it.
:class:`HTTPServingClient` speaks the JSON contract of
:mod:`repro.serving.httpd` over ``urllib`` and is what the CI smoke job
exercises end to end.

Transport failures surface as the typed
:class:`~repro.serving.errors.ServingUnavailable` (never a raw
``URLError``), and **idempotent** calls — the GET endpoints — are
retried under a seeded :class:`~repro.resilience.RetryPolicy` so a
health poll rides out a connection reset during server restart.  POSTs
are never retried: a ``/predict`` or ``/swap`` whose reply was lost may
have executed.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from datetime import datetime
from typing import Dict, Optional

from ..resilience import RetryError, RetryPolicy
from .errors import (
    AdmissionRejected,
    ArtifactError,
    BadRequest,
    DeadlineExceeded,
    ModelUnavailable,
    QueueFull,
    ReplicaFailure,
    ServingError,
    ServingUnavailable,
    SwapError,
)
from .fleet import FleetService
from .requests import PredictRequest, PredictResponse

#: kind -> exception class, for rehydrating HTTP error bodies.
_ERROR_KINDS = {
    cls.__name__: cls
    for cls in (
        ServingError,
        BadRequest,
        QueueFull,
        ModelUnavailable,
        ServingUnavailable,
        AdmissionRejected,
        ReplicaFailure,
        DeadlineExceeded,
        SwapError,
        ArtifactError,
    )
}

#: Default retry for idempotent HTTP calls: three attempts, seeded
#: jitter, only transport-level unavailability is ever retried.
DEFAULT_HTTP_RETRY = RetryPolicy(
    max_attempts=3,
    base_delay_s=0.05,
    max_delay_s=0.5,
    seed=0,
    retryable=(ServingUnavailable,),
)


class ServingClient:
    """In-process client: the test-facing face of a service."""

    def __init__(self, service: FleetService) -> None:
        self.service = service

    def predict(
        self,
        tokens,
        followers: int = 0,
        created_at: Optional[datetime] = None,
        vocabulary=None,
        magnitudes: Optional[Dict[str, float]] = None,
        timeout_s: Optional[float] = None,
        priority: str = "normal",
    ) -> PredictResponse:
        """Score one tweet; blocks until its micro-batch completes."""
        request = PredictRequest.build(
            tokens,
            followers=followers,
            created_at=created_at,
            vocabulary=vocabulary,
            magnitudes=magnitudes,
        )
        return self.service.predict(request, timeout_s=timeout_s, priority=priority)

    def healthz(self) -> dict:
        """Service liveness + active model summary."""
        return self.service.healthz()

    def metrics(self) -> dict:
        """Service metrics snapshot."""
        return self.service.metrics()

    def swap(self, artifact: str, expect_fingerprint: Optional[str] = None) -> dict:
        """Hot-swap to the artifact at *artifact* (a directory path)."""
        return self.service.swap(artifact, expect_fingerprint=expect_fingerprint)


def _raise_from_body(status: int, body: bytes) -> None:
    """Re-raise a typed ServingError from a JSON error body."""
    try:
        payload = json.loads(body.decode("utf-8"))
        kind = payload.get("error", "ServingError")
        message = payload.get("message", f"HTTP {status}")
    except (ValueError, UnicodeDecodeError):
        kind, message = "ServingError", f"HTTP {status}: {body[:200]!r}"
    raise _ERROR_KINDS.get(kind, ServingError)(message)


class HTTPServingClient:
    """Minimal JSON/HTTP client for a :class:`ServingServer`."""

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 10.0,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.retry_policy = retry_policy or DEFAULT_HTTP_RETRY

    def _call_once(self, method: str, path: str, payload: Optional[dict]) -> dict:
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as reply:
                return json.loads(reply.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            _raise_from_body(exc.code, exc.read())
            raise  # unreachable; keeps type-checkers happy
        except urllib.error.URLError as exc:
            raise ServingUnavailable(f"server unreachable: {exc.reason}") from exc

    def _call(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        idempotent: bool = False,
    ) -> dict:
        """One HTTP exchange; *idempotent* calls retry on unavailability.

        Only transport-level failures (:class:`ServingUnavailable`) are
        ever retried — an HTTP error body is a server answer and
        re-raises as its typed kind immediately.
        """
        if not idempotent:
            return self._call_once(method, path, payload)
        try:
            return self.retry_policy.call(
                lambda: self._call_once(method, path, payload),
                site=f"serving.client.{method}{path.replace('/', '.')}",
            )
        except RetryError as exc:
            raise exc.last

    def predict(
        self,
        tokens,
        followers: int = 0,
        created_at: Optional[str] = None,
        vocabulary=None,
        magnitudes: Optional[Dict[str, float]] = None,
        priority: Optional[str] = None,
    ) -> dict:
        """POST /predict; returns the JSON response body."""
        payload: dict = {"tokens": list(tokens), "followers": followers}
        if created_at is not None:
            payload["created_at"] = created_at
        if vocabulary is not None:
            payload["vocabulary"] = list(vocabulary)
        if magnitudes is not None:
            payload["magnitudes"] = dict(magnitudes)
        if priority is not None:
            payload["priority"] = priority
        return self._call("POST", "/predict", payload)

    def healthz(self) -> dict:
        """GET /healthz (idempotent: retried on connection failures)."""
        return self._call("GET", "/healthz", idempotent=True)

    def metrics(self) -> dict:
        """GET /metrics (idempotent: retried on connection failures)."""
        return self._call("GET", "/metrics", idempotent=True)

    def swap(self, artifact: str, expect_fingerprint: Optional[str] = None) -> dict:
        """POST /swap with the artifact directory path."""
        payload: dict = {"artifact": artifact}
        if expect_fingerprint is not None:
            payload["expect_fingerprint"] = expect_fingerprint
        return self._call("POST", "/swap", payload)

    def canary_start(
        self,
        artifact: str,
        mode: str = "canary",
        fraction: Optional[float] = None,
        window: Optional[int] = None,
        expect_fingerprint: Optional[str] = None,
    ) -> dict:
        """POST /canary — stage a candidate on a fleet server."""
        payload: dict = {"artifact": artifact, "mode": mode}
        if fraction is not None:
            payload["fraction"] = fraction
        if window is not None:
            payload["window"] = window
        if expect_fingerprint is not None:
            payload["expect_fingerprint"] = expect_fingerprint
        return self._call("POST", "/canary", payload)

    def canary_status(self) -> dict:
        """GET /canary (idempotent: retried on connection failures)."""
        return self._call("GET", "/canary", idempotent=True)

    def canary_abort(self) -> dict:
        """POST /canary/abort — roll back the active deployment."""
        return self._call("POST", "/canary/abort", {})
