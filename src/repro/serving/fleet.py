"""Serving fleet: replica pool, canary/shadow deploys, admission control.

One :class:`FleetService` runs N :class:`Replica` workers behind a
:class:`~repro.serving.router.Router`:

* every replica owns its **own** :class:`~repro.serving.scheduler.BatchScheduler`
  and its own forward-pass layer stack, but the parameter arrays are
  **zero-copy views** of the registry's published weights
  (:meth:`~repro.serving.registry.ModelVersion.replica_model`) and the
  :class:`~repro.serving.cache.FeatureCache` is shared — features are
  thread-safe to share, scratch buffers are not;
* an :class:`~repro.serving.admission.AdmissionController` sheds work at
  enqueue time (rate limit, priority queue thresholds, deadline
  feasibility) before it costs a queue slot;
* a replica that keeps failing is ejected from rotation and probed back
  to health (see :mod:`repro.serving.router`); a single failed batch is
  retried on another replica through the fleet's
  :class:`~repro.resilience.RetryPolicy`;
* :class:`CanaryController` stages a candidate model next to the pool
  and routes (canary mode) or mirrors (shadow mode) a seeded, bitwise
  deterministic slice of traffic to it, then auto-promotes or
  auto-rolls-back on error-rate / latency-tail / prediction-delta
  metrics computed with :class:`repro.obs.metrics.Histogram`.

Everything the fleet decides is observable under ``serving.fleet.*``
counters and the :meth:`FleetService.metrics` snapshot.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .. import obs
from ..datasets.builders import document_vector
from ..datasets.encoding import encode_count
from ..obs.metrics import Histogram
from ..resilience import RetryError, RetryPolicy, faults
from ..tools.annotations import guarded_by
from .admission import AdmissionController
from .cache import FeatureCache
from .config import FleetConfig, ServingConfig
from .errors import (
    AdmissionRejected,
    BadRequest,
    ReplicaFailure,
    ServingError,
)
from .registry import ModelRegistry, ModelVersion
from .requests import PredictRequest, PredictResponse
from .router import Router
from .scheduler import BatchScheduler

#: Tokens of the synthetic request routed through an ejected replica's
#: full scheduler path to decide re-admission.
PROBE_TOKENS = ("__fleet_probe__",)


def traffic_split(seed: int, index: int, fraction: float) -> bool:
    """Deterministic per-request canary assignment.

    Hashes ``seed:index`` (the request's admission order) into a uniform
    draw in [0, 1); a draw below *fraction* goes to the candidate.  Pure
    arithmetic on the arrival index — the same seed and traffic order
    produce the same split on every machine, which is what lets the
    canary tests pin promote/rollback outcomes bitwise.
    """
    digest = hashlib.sha256(f"{seed}:{index}".encode("utf-8")).digest()
    draw = int.from_bytes(digest[:8], "big") / 2**64
    return draw < fraction


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
        index,
        registry: ModelRegistry,
        cache: FeatureCache,
        config: ServingConfig,
        eject_after: int = 3,
        version_resolver: Optional[Callable[[], ModelVersion]] = None,
        latency_sink: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.index = index
        self.registry = registry
        self.cache = cache
        self.config = config
        self.eject_after = eject_after
        self.fault_site = f"serving.fleet.replica.{index}"
        self._resolve = version_resolver or registry.active
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
            version = self._resolve()
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
            # Any replica-side failure — injected fault, resolver error,
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

    def submit(self, request: PredictRequest, timeout_s=None, on_done=None):
        """Non-blocking submit (shadow mirroring path)."""
        return self.scheduler.submit(request, timeout_s=timeout_s, on_done=on_done)

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


#: Canary deployment states.
CANARY_STATES = ("idle", "canary", "shadow", "promoted", "rolled_back")


@guarded_by(
    "_lock",
    "_state",
    "_mode",
    "_reason",
    "_version",
    "_replica",
    "_finished_replica",
    "_fraction",
    "_window",
    "_next_index",
    "_candidate_samples",
    "_candidate_errors",
    "_shadow_pairs",
    "_shadow_mismatches",
)
class CanaryController:
    """Stages a candidate model and decides its fate from live metrics.

    State machine: ``idle -> canary|shadow -> promoted|rolled_back``
    (the terminal state doubles as the last outcome; :meth:`start`
    re-arms from any non-active state).  In **canary** mode the
    candidate *answers* its traffic slice; in **shadow** mode it only
    mirrors — its responses are recorded and never returned, so a bad
    candidate is provably invisible to clients.

    The decision fires exactly when ``window`` candidate samples have
    been recorded, and rolls back when any check trips:

    * candidate error rate   > ``max_error_rate``;
    * candidate p95 latency  > ``max_latency_ratio`` x pool p95;
    * (shadow only) label disagreement rate > ``max_prediction_delta``.

    Latency tails come from :class:`repro.obs.metrics.Histogram`
    instances owned by the deployment, so the verdict is a pure function
    of the recorded samples.  Promotion is the registry's atomic pointer
    flip (:meth:`~repro.serving.registry.ModelRegistry.promote`);
    rollback simply discards the staged version — the active pointer
    never moved.
    """

    def __init__(self, registry: ModelRegistry, config: FleetConfig) -> None:
        self.registry = registry
        self.config = config
        self._lock = threading.Lock()
        self._state = "idle"
        self._mode: Optional[str] = None
        self._reason: Optional[str] = None
        self._version: Optional[ModelVersion] = None
        self._replica: Optional[Replica] = None
        self._finished_replica: Optional[Replica] = None
        self._fraction = config.canary_fraction
        self._window = config.canary_window
        self._next_index = 0
        self._candidate_samples = 0
        self._candidate_errors = 0
        self._shadow_pairs = 0
        self._shadow_mismatches = 0
        self._candidate_latency = Histogram("serving.fleet.canary.latency_ms")
        self._primary_latency = Histogram("serving.fleet.primary.latency_ms")

    # -- lifecycle -----------------------------------------------------------

    def start(
        self,
        version: ModelVersion,
        replica: Replica,
        mode: str = "canary",
        fraction: Optional[float] = None,
        window: Optional[int] = None,
    ) -> dict:
        """Arm a deployment for *version* served by *replica*."""
        if mode not in ("canary", "shadow"):
            raise BadRequest(f"canary mode must be 'canary' or 'shadow', got {mode!r}")
        fraction = fraction if fraction is not None else self.config.canary_fraction
        window = window if window is not None else self.config.canary_window
        if not 0.0 < fraction <= 1.0:
            raise BadRequest("canary fraction must lie in (0, 1]")
        if window < 1:
            raise BadRequest("canary window must be >= 1")
        with self._lock:
            if self._state in ("canary", "shadow"):
                raise ServingError(
                    f"a {self._state} deployment of version "
                    f"{self._version.version_id} is already active"
                )
            self._state = mode
            self._mode = mode
            self._reason = None
            self._version = version
            self._replica = replica
            self._fraction = fraction
            self._window = window
            self._next_index = 0
            self._candidate_samples = 0
            self._candidate_errors = 0
            self._shadow_pairs = 0
            self._shadow_mismatches = 0
            self._candidate_latency = Histogram("serving.fleet.canary.latency_ms")
            self._primary_latency = Histogram("serving.fleet.primary.latency_ms")
        obs.counter(f"serving.fleet.canary.started_{mode}").inc()
        return self.status()

    def active(self) -> bool:
        """True while a canary/shadow deployment is taking traffic."""
        with self._lock:
            return self._state in ("canary", "shadow")

    def abort(self, reason: str = "aborted by operator") -> None:
        """Roll back an active deployment unconditionally."""
        with self._lock:
            if self._state not in ("canary", "shadow"):
                return
            self._state = "rolled_back"
            self._reason = reason
            self._finished_replica = self._replica
            self._replica = None
        obs.counter("serving.fleet.canary.rollbacks").inc()

    def reap(self) -> None:
        """Close the finished deployment's replica, if one is pending.

        Deferred out of the decision path on purpose: in shadow mode the
        verdict can fire on the candidate scheduler's own worker thread
        (inside an ``on_done`` callback), and a scheduler cannot join
        itself.  Callers on ordinary client threads — ``predict``,
        ``canary_status``, ``close`` — do the actual closing.
        """
        with self._lock:
            replica, self._finished_replica = self._finished_replica, None
        if replica is not None:
            replica.close()

    # -- traffic -------------------------------------------------------------

    def assign(self) -> Optional[tuple]:
        """``(candidate_replica, mode)`` when this request is in the slice.

        Consumes one index from the deterministic splitter; returns
        ``None`` while idle or for requests outside the slice.
        """
        with self._lock:
            if self._state not in ("canary", "shadow"):
                return None
            index = self._next_index
            self._next_index += 1
            if not traffic_split(self.config.canary_seed, index, self._fraction):
                return None
            return self._replica, self._mode

    def record_primary(self, latency_ms: float) -> None:
        """A pool-served response's latency (the comparison baseline)."""
        with self._lock:
            if self._state not in ("canary", "shadow"):
                return
            self._primary_latency.observe(latency_ms)

    def record_candidate(self, latency_ms: Optional[float], error: bool) -> None:
        """A candidate-served outcome in **canary** mode."""
        with self._lock:
            if self._state != "canary":
                return
            self._candidate_samples += 1
            if error:
                self._candidate_errors += 1
            elif latency_ms is not None:
                self._candidate_latency.observe(latency_ms)
        if error:
            obs.counter("serving.fleet.canary.candidate_errors").inc()
        self._maybe_decide()

    def record_shadow(
        self,
        primary_label: int,
        response: Optional[PredictResponse],
        error: Optional[BaseException],
    ) -> None:
        """A mirrored request's outcome in **shadow** mode.

        Wired as the candidate scheduler's ``on_done`` callback — the
        primary already answered the client; this only scores the
        candidate's agreement, latency, and error rate.
        """
        with self._lock:
            if self._state != "shadow":
                return
            self._candidate_samples += 1
            self._shadow_pairs += 1
            if error is not None:
                self._candidate_errors += 1
            else:
                assert response is not None
                self._candidate_latency.observe(response.latency_ms)
                if response.label != primary_label:
                    self._shadow_mismatches += 1
        obs.counter("serving.fleet.canary.mirrored").inc()
        if error is not None:
            obs.counter("serving.fleet.canary.candidate_errors").inc()
        self._maybe_decide()

    # -- the verdict ---------------------------------------------------------

    def _metrics_locked(self) -> dict:
        samples = self._candidate_samples
        error_rate = self._candidate_errors / samples if samples else 0.0
        candidate_p95 = self._candidate_latency.percentile(95)
        primary_p95 = self._primary_latency.percentile(95)
        latency_ratio = (
            candidate_p95 / primary_p95
            if candidate_p95 is not None and primary_p95
            else None
        )
        prediction_delta = (
            self._shadow_mismatches / self._shadow_pairs if self._shadow_pairs else 0.0
        )
        return {
            "samples": samples,
            "errors": self._candidate_errors,
            "error_rate": error_rate,
            "candidate_p95_ms": candidate_p95,
            "primary_p95_ms": primary_p95,
            "latency_ratio": latency_ratio,
            "shadow_pairs": self._shadow_pairs,
            "shadow_mismatches": self._shadow_mismatches,
            "prediction_delta": prediction_delta,
        }

    def _verdict_locked(self) -> tuple:
        """(outcome, reason) once the window is full.  Pure maths."""
        metrics = self._metrics_locked()
        cfg = self.config
        if metrics["error_rate"] > cfg.canary_max_error_rate:
            return "rolled_back", (
                f"error rate {metrics['error_rate']:.1%} exceeds "
                f"{cfg.canary_max_error_rate:.1%}"
            )
        ratio = metrics["latency_ratio"]
        if ratio is not None and ratio > cfg.canary_max_latency_ratio:
            return "rolled_back", (
                f"p95 latency ratio {ratio:.2f} exceeds "
                f"{cfg.canary_max_latency_ratio:.2f}"
            )
        if (
            self._mode == "shadow"
            and metrics["prediction_delta"] > cfg.canary_max_prediction_delta
        ):
            return "rolled_back", (
                f"prediction delta {metrics['prediction_delta']:.1%} exceeds "
                f"{cfg.canary_max_prediction_delta:.1%}"
            )
        return "promoted", "all canary gates passed"

    def _maybe_decide(self) -> None:
        """Evaluate the deployment once the decision window fills.

        The verdict is computed (and the state flipped) under the lock;
        the *execution* — the registry's pointer flip — happens outside
        it, keeping the lock graph free of canary -> registry edges with
        the lock held.
        """
        promote_version: Optional[ModelVersion] = None
        decided = None
        with self._lock:
            if self._state not in ("canary", "shadow"):
                return
            if self._candidate_samples < self._window:
                return
            outcome, reason = self._verdict_locked()
            self._state = outcome
            self._reason = reason
            self._finished_replica = self._replica
            self._replica = None
            decided = outcome
            if outcome == "promoted":
                promote_version = self._version
        if promote_version is not None:
            self.registry.promote(promote_version)
            obs.counter("serving.fleet.canary.promotions").inc()
        elif decided is not None:
            obs.counter("serving.fleet.canary.rollbacks").inc()

    def status(self) -> dict:
        """The deployment's state, knobs, and decision metrics."""
        with self._lock:
            return {
                "state": self._state,
                "mode": self._mode,
                "reason": self._reason,
                "candidate_version": (
                    self._version.version_id if self._version else None
                ),
                "fraction": self._fraction,
                "window": self._window,
                "assigned_indices": self._next_index,
                "metrics": self._metrics_locked(),
            }


@guarded_by(
    "_stats_lock",
    "_responses",
    "_errors",
    "_swaps",
    "_batch_latency_s",
    "_latencies",
)
class FleetService:
    """A replica fleet behind admission control and canary deploys.

    The one online service: ``predict/swap/healthz/metrics/close`` plus
    ``canary_start/canary_status/canary_abort`` and priority-aware
    admission.  A fleet of one replica is the single-worker case.
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
        self.admission = AdmissionController(self.fleet_config.admission_config())
        self.canary = CanaryController(registry, self.fleet_config)
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
        """EWMA of per-flush latency feeding the admission estimator."""
        with self._stats_lock:
            if self._batch_latency_s is None:
                self._batch_latency_s = seconds
            else:
                self._batch_latency_s = 0.8 * self._batch_latency_s + 0.2 * seconds

    def observed_batch_latency(self) -> Optional[float]:
        """Smoothed flush latency in seconds (None before any flush)."""
        with self._stats_lock:
            return self._batch_latency_s

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

    def _candidate_predict(
        self,
        candidate: Replica,
        request: PredictRequest,
        timeout_s: Optional[float],
    ) -> Optional[PredictResponse]:
        """Canary-mode candidate attempt; None means fall back to pool.

        The candidate's failure is *recorded* (it counts against the
        deployment's error gate) but never surfaced: the client gets a
        pool answer instead, so a broken candidate degrades the canary
        metrics, not the service.
        """
        try:
            response = candidate.predict(request, timeout_s=timeout_s)
        except BadRequest:
            raise
        except ServingError:
            self.canary.record_candidate(None, error=True)
            return None
        self.canary.record_candidate(response.latency_ms, error=False)
        obs.counter("serving.fleet.canary.assigned").inc()
        return response

    # -- public API ----------------------------------------------------------

    def predict(
        self,
        request: PredictRequest,
        timeout_s: Optional[float] = None,
        priority: str = "normal",
    ) -> PredictResponse:
        """Admit, route, and score one request.

        Raises :class:`~repro.serving.errors.AdmissionRejected` when the
        fleet sheds the request (rate limit, queue pressure, or an
        unmeetable deadline) — before it costs a queue slot anywhere.
        """
        timeout = timeout_s if timeout_s is not None else self.config.timeout_s
        depth = self.router.min_queue_depth() or 0
        try:
            self.admission.admit(
                priority,
                queue_depth=depth,
                queue_capacity=self.config.max_queue,
                max_batch_size=self.config.max_batch_size,
                batch_latency_s=self.observed_batch_latency(),
                deadline_s=timeout,
            )
        except AdmissionRejected:
            with self._stats_lock:
                self._errors += 1
            raise
        self.canary.reap()
        assignment = self.canary.assign()
        candidate, mode = assignment if assignment is not None else (None, None)
        try:
            response: Optional[PredictResponse] = None
            if candidate is not None and mode == "canary":
                response = self._candidate_predict(candidate, request, timeout)
            if response is None:
                response = self._pool_predict(request, timeout)
                self.canary.record_primary(response.latency_ms)
                if candidate is not None and mode == "shadow":
                    self._mirror(candidate, request, response, timeout)
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

    def _mirror(
        self,
        candidate: Replica,
        request: PredictRequest,
        primary: PredictResponse,
        timeout_s: Optional[float],
    ) -> None:
        """Shadow-mode mirror: fire-and-forget onto the candidate.

        The client already holds the pool's answer; the candidate's
        verdict arrives through ``on_done`` on the candidate's worker
        thread and is only ever *recorded*.  A full candidate queue is
        itself recorded as a candidate error.
        """
        primary_label = primary.label

        def on_done(response, error):
            self.canary.record_shadow(primary_label, response, error)

        try:
            candidate.submit(request, timeout_s=timeout_s, on_done=on_done)
        except ServingError as exc:
            self.canary.record_shadow(primary_label, None, exc)

    def swap(self, source, expect_fingerprint: Optional[str] = None) -> dict:
        """Hot-swap every replica to a new artifact atomically.

        One registry pointer flip; each replica's next flush resolves
        the new version and builds its zero-copy view on first use.
        """
        version = self.registry.swap(source, expect_fingerprint=expect_fingerprint)
        with self._stats_lock:
            self._swaps += 1
        return version.describe()

    # -- canary/shadow -------------------------------------------------------

    def canary_start(
        self,
        source,
        mode: str = "canary",
        fraction: Optional[float] = None,
        window: Optional[int] = None,
        expect_fingerprint: Optional[str] = None,
    ) -> dict:
        """Stage *source* and start routing/mirroring a traffic slice.

        The candidate is validated exactly like a swap target
        (:meth:`~repro.serving.registry.ModelRegistry.stage`) but the
        active pointer does not move until the deployment promotes.
        """
        self.canary.reap()
        version = self.registry.stage(source, expect_fingerprint=expect_fingerprint)
        candidate = Replica(
            "candidate",
            self.registry,
            self.cache,
            self.config,
            eject_after=self.fleet_config.eject_after,
            version_resolver=lambda: version,
        )
        try:
            return self.canary.start(
                version, candidate, mode=mode, fraction=fraction, window=window
            )
        except Exception:
            candidate.close()
            raise

    def canary_status(self) -> dict:
        """The active (or last finished) deployment's status."""
        self.canary.reap()
        return self.canary.status()

    def canary_abort(self) -> dict:
        """Operator-initiated rollback of the active deployment."""
        self.canary.abort()
        self.canary.reap()
        return self.canary.status()

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
        """Fleet-wide counters: admission, routing, canary, schedulers,
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
            "canary": self.canary.status(),
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
        """Abort any deployment and drain every replica."""
        self.canary.abort("service shutting down")
        self.canary.reap()
        for replica in self.replicas:
            replica.close()

    def __enter__(self) -> "FleetService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
