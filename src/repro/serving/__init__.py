"""``repro.serving`` — online inference for audience-interest models.

The §4.9 system scores live tweets; this subsystem turns a trained
pipeline artifact into that online service (see ``docs/serving.md``):

* :class:`ModelRegistry` / :class:`ModelVersion` — load ``Sequential``
  weights + frozen embeddings + config fingerprint from an artifact
  directory, re-score its pinned probe rows, and hot-swap atomically
  without dropping in-flight requests;
* :class:`BatchScheduler` — work-conserving micro-batching dispatcher
  (runs whatever is queued, up to ``max_batch_size``, as soon as the
  worker is free; bounded-queue backpressure, per-request deadlines as
  typed :class:`ServingError`\\ s);
* :class:`FeatureCache` — LRU cache keyed on (model version,
  token-hash) for document vectors and metadata encodings;
* :class:`FleetService` — the online service: a replica pool (one
  replica is the single-worker case) behind a pluggable
  :class:`Router`, with one :class:`AdmissionController` queue rule and
  one deploy verb, the probe-verified :meth:`FleetService.swap` (see
  ``docs/fleet.md``);
* :class:`ServingClient` (in-process) and :class:`ServingServer` +
  :class:`HTTPServingClient` (stdlib ``http.server`` JSON endpoints
  ``/predict`` ``/healthz`` ``/metrics`` ``/swap``), driven by
  ``python -m repro serve``.

Responses are **bitwise-identical** to offline
``Sequential.predict(X, batch_size=B, pad_to=B)`` outputs for the same
tweets: features go through the exact dataset-builder code path and
every forward pass runs at a fixed padded row count.
"""

from .admission import AdmissionController
from .artifacts import ServingArtifact, load_artifact, save_artifact
from .cache import FeatureCache, LRUCache
from .client import HTTPServingClient, ServingClient
from .config import FleetConfig, ServingConfig
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
from .fleet import FleetService, Replica
from .httpd import ServingServer
from .registry import ModelRegistry, ModelVersion
from .requests import DEFAULT_CREATED_AT, PredictRequest, PredictResponse
from .router import POLICIES, Router
from .scheduler import BatchScheduler, PendingRequest

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "ArtifactError",
    "BadRequest",
    "BatchScheduler",
    "DEFAULT_CREATED_AT",
    "DeadlineExceeded",
    "FeatureCache",
    "FleetConfig",
    "FleetService",
    "HTTPServingClient",
    "LRUCache",
    "ModelRegistry",
    "ModelUnavailable",
    "ModelVersion",
    "POLICIES",
    "PendingRequest",
    "PredictRequest",
    "PredictResponse",
    "QueueFull",
    "Replica",
    "ReplicaFailure",
    "Router",
    "ServingArtifact",
    "ServingClient",
    "ServingConfig",
    "ServingError",
    "ServingServer",
    "ServingUnavailable",
    "SwapError",
    "load_artifact",
    "save_artifact",
]
