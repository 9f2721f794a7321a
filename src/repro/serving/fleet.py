"""Serving fleet: replica pool, router, admission control, hot-swap.

One :class:`FleetService` runs N :class:`Replica` workers behind a
:class:`~repro.serving.router.Router`:

* every replica owns its **own** :class:`~repro.serving.scheduler.BatchScheduler`
  and its own forward-pass layer stack, but the parameter arrays are
  **zero-copy views** of the registry's published weights
  (:meth:`~repro.serving.registry.ModelVersion.replica_model`) and the
  :class:`~repro.serving.cache.FeatureCache` is shared — features are
  thread-safe to share, scratch buffers are not;
* an :class:`~repro.serving.admission.AdmissionController` sheds work at
  enqueue time, once the shallowest replica queue is 85% full, before
  it costs a queue slot;
* a replica that keeps failing is ejected from rotation and probed back
  to health (see :mod:`repro.serving.router`); a single failed batch is
  retried on another replica through the fleet's
  :class:`~repro.resilience.RetryPolicy`;
* :meth:`FleetService.swap` is the one deploy verb: the registry builds
  the candidate, re-scores its pinned probe rows, and flips the active
  pointer for every replica at once — or refuses it while the old
  version keeps serving.

Everything the fleet decides is observable under ``serving.fleet.*``
counters and the :meth:`FleetService.metrics` snapshot.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .. import obs
from ..datasets.builders import document_vector
from ..datasets.encoding import encode_count
from ..resilience import RetryError, RetryPolicy, faults
from ..tools.annotations import guarded_by
from .admission import AdmissionController
from .cache import FeatureCache
from .config import FleetConfig, ServingConfig
from .errors import AdmissionRejected, BadRequest, ReplicaFailure, ServingError
from .registry import ModelRegistry, ModelVersion
from .requests import PredictRequest, PredictResponse
from .router import Router
from .scheduler import BatchScheduler

#: Tokens of the synthetic request routed through an ejected replica's
#: full scheduler path to decide re-admission.
PROBE_TOKENS = ("__fleet_probe__",)


def _percentile(values: Sequence[float], q: float) -> float:
    """q-th percentile of *values* (0.0 for an empty series)."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def encode_request(
    cache: FeatureCache, request: PredictRequest, version: ModelVersion
) -> np.ndarray:
    """One feature row, bitwise-equal to the offline dataset row.

    Document vectors go through the per-version LRU cache; the
    metadata/followers tail is tiny and recomputed [cached by
    ``(followers, weekday)``] exactly like
    :func:`repro.datasets.encode_record` builds it.
    """
    record = request.to_record()
    key = cache.document_key(
        version.version_id,
        version.family,
        request.tokens,
        request.vocabulary,
        request.magnitudes,
    )
    parts = [
        cache.document_vector(
            key,
            lambda: document_vector(record, version.embeddings, version.family),
        )
    ]
    if version.with_metadata:
        parts.append(cache.metadata_vector(record.followers, record.created_at))
    if version.with_followers:
        parts.append(np.array([float(encode_count(record.followers))]))
    row = np.concatenate(parts)
    if row.shape[0] != version.input_dim:
        raise BadRequest(
            f"request encodes to {row.shape[0]} features but the model "
            f"expects {version.input_dim} (wrong embedding dimension?)"
        )
    return row


def score_requests(
    cache: FeatureCache,
    version: ModelVersion,
    requests: Sequence[PredictRequest],
    pad_to: int,
    model,
) -> List[PredictResponse]:
    """Encode + score one micro-batch with a single padded forward pass.

    *model* is the network to run (a replica's zero-copy view of
    *version*'s weights).  The fixed ``pad_to`` row count keeps outputs
    bitwise-independent of how requests were grouped into batches.
    """
    rows = [encode_request(cache, request, version) for request in requests]
    X = np.vstack(rows) if rows else np.zeros((0, version.input_dim))
    probabilities = model.predict(X, batch_size=pad_to, pad_to=pad_to)
    labels = (
        np.argmax(probabilities, axis=1)
        if len(probabilities)
        else np.zeros(0, dtype=int)
    )
    return [
        PredictResponse(
            probabilities=probabilities[i].tolist(),
            label=int(labels[i]),
            model_version=version.version_id,
            fingerprint=version.fingerprint,
            batch_rows=len(requests),
        )
        for i in range(len(requests))
    ]


@guarded_by("_lock", "served", "failed", "_consecutive_failures", "_ejected")
class Replica:
    """One serving worker: private scheduler + zero-copy model view."""

    def __init__(
        self,
        index: int,
        registry: ModelRegistry,
        cache: FeatureCache,
        config: ServingConfig,
        eject_after: int = 3,
        latency_sink: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.index = index
        self.registry = registry
        self.cache = cache
        self.config = config
        self.eject_after = eject_after
        self.fault_site = f"serving.fleet.replica.{index}"
        self._latency_sink = latency_sink
        # Model views are only touched by this replica's single worker
        # thread (inside _run_batch), so the dict needs no lock.  At
        # most two versions stay materialised: the active one and the
        # one an in-flight batch resolved just before a swap.
        self._views: Dict[int, object] = {}
        self._lock = threading.Lock()
        self._consecutive_failures = 0
        self._ejected = False
        self.served = 0
        self.failed = 0
        self.scheduler = BatchScheduler(
            self._run_batch,
            max_batch_size=config.max_batch_size,
            max_queue=config.max_queue,
        )

    # -- the batched hot path ------------------------------------------------

    def _view(self, version: ModelVersion):
        """This replica's forward-pass clone of *version* (cached)."""
        model = self._views.get(version.version_id)
        if model is None:
            model = version.replica_model()
            self._views[version.version_id] = model
            while len(self._views) > 2:
                self._views.pop(next(iter(self._views)))
        return model

    def _run_batch(
        self, requests: Sequence[PredictRequest]
    ) -> List[PredictResponse]:
        """Score one micro-batch on this replica's model view.

        ``serving.fleet.replica.<index>`` is the chaos site: an injected
        fault here surfaces as :class:`ReplicaFailure`, counts toward
        ejection, and the fleet retries the requests on another replica.
        :class:`BadRequest` is the *request's* fault and never counts.
        """
        started = time.perf_counter()
        try:
            faults.inject(self.fault_site)
            version = self.registry.active()
            responses = score_requests(
                self.cache,
                version,
                requests,
                pad_to=self.config.max_batch_size,
                model=self._view(version),
            )
        except BadRequest:
            raise
        except Exception as exc:
            # Any replica-side failure — injected fault, registry error,
            # kernel bug — is one failure against this replica's health.
            self._note_failure()
            if isinstance(exc, ServingError):
                raise
            raise ReplicaFailure(
                f"replica {self.index} failed a batch: {exc!r}"
            ) from exc
        self._note_success(len(requests))
        if self._latency_sink is not None:
            self._latency_sink(time.perf_counter() - started)
        return responses

    # -- health --------------------------------------------------------------

    def _note_failure(self) -> None:
        ejected_now = False
        with self._lock:
            self.failed += 1
            self._consecutive_failures += 1
            if not self._ejected and self._consecutive_failures >= self.eject_after:
                self._ejected = True
                ejected_now = True
        obs.counter("serving.fleet.replica.failures").inc()
        if ejected_now:
            obs.counter("serving.fleet.replica.ejected").inc()

    def _note_success(self, rows: int) -> None:
        with self._lock:
            self.served += rows
            self._consecutive_failures = 0

    def available(self) -> bool:
        """True while the replica is in rotation."""
        with self._lock:
            return not self._ejected

    def readmit(self) -> None:
        """Put an ejected replica back into rotation (probe passed)."""
        with self._lock:
            self._ejected = False
            self._consecutive_failures = 0
        obs.counter("serving.fleet.replica.readmitted").inc()

    def probe(self) -> bool:
        """Health-check the full scheduler + forward-pass path.

        A synthetic one-token request runs through the same batch
        machinery as real traffic; a healthy answer re-admits the
        replica.  Returns False (still ejected) on any serving error.
        """
        request = PredictRequest.build(list(PROBE_TOKENS))
        try:
            self.scheduler.predict(request, timeout_s=self.config.timeout_s)
        except ServingError:
            obs.counter("serving.fleet.replica.probe_failures").inc()
            return False
        self.readmit()
        return True

    # -- plumbing ------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests waiting in this replica's scheduler."""
        return self.scheduler.queue_depth

    def predict(
        self, request: PredictRequest, timeout_s: Optional[float] = None
    ) -> PredictResponse:
        """Submit to this replica and block for the response."""
        return self.scheduler.predict(request, timeout_s=timeout_s)

    def describe(self) -> dict:
        """Health + throughput summary for ``/metrics``."""
        # Snapshot the depth before taking our lock: queue_depth
        # acquires the scheduler's condition, and nesting it under
        # Replica._lock would add a lock-order edge for no benefit.
        depth = self.scheduler.queue_depth
        with self._lock:
            return {
                "index": self.index,
                "ejected": self._ejected,
                "consecutive_failures": self._consecutive_failures,
                "served": self.served,
                "failed": self.failed,
                "queue_depth": depth,
            }

    def close(self) -> None:
        """Drain and stop this replica's scheduler."""
        self.scheduler.close()


@guarded_by(
    "_stats_lock",
    "_responses",
    "_errors",
    "_swaps",
    "_batch_latency_s",
    "_latencies",
)
class FleetService:
    """A replica fleet behind one admission rule and one deploy verb.

    The one online service: ``predict/swap/healthz/metrics/close``.  A
    fleet of one replica is the single-worker case.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: Optional[ServingConfig] = None,
        fleet_config: Optional[FleetConfig] = None,
    ) -> None:
        self.registry = registry
        self.config = config or ServingConfig()
        self.fleet_config = fleet_config or FleetConfig()
        self.cache = FeatureCache(self.config.cache_size)
        self.replicas = [
            Replica(
                index,
                registry,
                self.cache,
                self.config,
                eject_after=self.fleet_config.eject_after,
                latency_sink=self._note_batch_latency,
            )
            for index in range(self.fleet_config.replicas)
        ]
        self.router = Router(
            self.replicas,
            policy=self.fleet_config.router,
            probe_after=self.fleet_config.probe_after,
        )
        self.admission = AdmissionController()
        self._retry = RetryPolicy(
            max_attempts=len(self.replicas) + 1,
            base_delay_s=0.0,
            jitter=0.0,
            seed=self.config.seed,
            retryable=(ReplicaFailure,),
        )
        self._stats_lock = threading.Lock()
        self._responses = 0
        self._errors = 0
        self._batch_latency_s: Optional[float] = None
        self._swaps = 0
        #: The last 4096 client-visible latencies (``latency_ms`` in
        #: :meth:`metrics`).
        self._latencies: "deque[float]" = deque(maxlen=4096)

    # -- internals -----------------------------------------------------------

    def _note_batch_latency(self, seconds: float) -> None:
        """EWMA of per-flush latency (``batch_latency_s`` in :meth:`metrics`)."""
        with self._stats_lock:
            if self._batch_latency_s is None:
                self._batch_latency_s = seconds
            else:
                self._batch_latency_s = 0.8 * self._batch_latency_s + 0.2 * seconds

    def _pool_predict(
        self, request: PredictRequest, timeout_s: Optional[float]
    ) -> PredictResponse:
        """Route into the healthy pool, retrying across replicas.

        A :class:`ReplicaFailure` fails one replica's batch, bumps that
        replica's health counters, and is retried on whichever replica
        the router picks next (the failing one ejects itself after
        ``eject_after`` strikes).  Anything else propagates unchanged.
        """

        def attempt() -> PredictResponse:
            replica = self.router.route()
            return replica.predict(request, timeout_s=timeout_s)

        try:
            return self._retry.call(attempt, site="serving.fleet.route")
        except RetryError as exc:
            raise exc.last

    # -- public API ----------------------------------------------------------

    def predict(
        self, request: PredictRequest, timeout_s: Optional[float] = None
    ) -> PredictResponse:
        """Admit, route, and score one request.

        Raises :class:`~repro.serving.errors.AdmissionRejected` when the
        shallowest replica queue is too full to take the request —
        before it costs a queue slot anywhere.
        """
        timeout = timeout_s if timeout_s is not None else self.config.timeout_s
        try:
            self.admission.admit(
                self.router.min_queue_depth() or 0, self.config.max_queue
            )
        except AdmissionRejected:
            with self._stats_lock:
                self._errors += 1
            raise
        try:
            response = self._pool_predict(request, timeout)
        except ServingError:
            with self._stats_lock:
                self._errors += 1
            obs.counter("serving.errors").inc()
            raise
        with self._stats_lock:
            self._responses += 1
            self._latencies.append(response.latency_ms)
        obs.counter("serving.responses").inc()
        obs.histogram("serving.latency_ms").observe(response.latency_ms)
        return response

    def swap(self, source, expect_fingerprint: Optional[str] = None) -> dict:
        """Hot-swap every replica to a new artifact atomically.

        The registry builds the candidate and re-scores its pinned probe
        rows off to the side, then flips one pointer; each replica's
        next flush resolves the new version and builds its zero-copy
        view on first use.  A refused candidate raises
        :class:`~repro.serving.errors.SwapError` and the old version
        keeps serving.
        """
        version = self.registry.swap(source, expect_fingerprint=expect_fingerprint)
        with self._stats_lock:
            self._swaps += 1
        return version.describe()

    # -- health + metrics ----------------------------------------------------

    def healthz(self) -> dict:
        """Liveness: active model + per-replica health."""
        active = self.registry.active()
        healthy = self.router.healthy_indices()
        return {
            "status": "ok" if healthy else "degraded",
            "model": active.describe(),
            "replicas": len(self.replicas),
            "healthy_replicas": len(healthy),
        }

    def metrics(self) -> Dict[str, object]:
        """Fleet-wide counters: admission, routing, schedulers, cache,
        and client-visible latency percentiles."""
        with self._stats_lock:
            responses = self._responses
            errors = self._errors
            swaps = self._swaps
            batch_latency = self._batch_latency_s
            latencies = list(self._latencies)
        schedulers = [replica.scheduler.stats() for replica in self.replicas]
        return {
            "responses": responses,
            "errors": errors,
            "swaps": swaps,
            "replicas": len(self.replicas),
            "batch_latency_s": batch_latency,
            "admission": self.admission.stats(),
            "router": self.router.stats(),
            "schedulers": schedulers,
            "cache": self.cache.stats(),
            "cache_hit_rate": self.cache.hit_rate,
            "latency_ms": {
                "p50": _percentile(latencies, 50),
                "p95": _percentile(latencies, 95),
                "p99": _percentile(latencies, 99),
            },
        }

    def close(self) -> None:
        """Drain every replica."""
        for replica in self.replicas:
            replica.close()

    def __enter__(self) -> "FleetService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
