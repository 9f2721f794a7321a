"""Model registry: versioned, hot-swappable serving models.

A :class:`ModelVersion` is one immutable, ready-to-serve unit — built
network, frozen embeddings, variant spec — identified by a monotonically
increasing integer.  :class:`ModelRegistry` owns the *active* pointer.
Every load and :meth:`ModelRegistry.swap` builds the candidate and
re-scores the artifact's pinned probe rows outside the registry lock,
then publishes it with an atomic pointer flip, so in-flight batches
keep the version object they resolved, no request ever observes a
half-loaded model, and an artifact whose weights do not reproduce its
probes is refused while the old version keeps serving.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Union

from .. import obs
from ..resilience import RetryPolicy, faults
from ..tools.annotations import guarded_by
from .artifacts import ServingArtifact, load_artifact
from .errors import ArtifactError, ModelUnavailable, SwapError


class ModelVersion:
    """One model version, built and probe-verified from an artifact.

    Immutable once published; :class:`ModelRegistry` assigns
    ``version_id`` at the pointer flip, so a refused candidate never
    consumes an id.
    """

    def __init__(self, artifact: ServingArtifact) -> None:
        from ..datasets.builders import variant_spec

        self.version_id = 0
        self.artifact = artifact
        self.variant = artifact.variant
        self.network = artifact.network
        self.input_dim = artifact.input_dim
        self.n_classes = artifact.n_classes
        self.fingerprint = artifact.fingerprint
        self.family, self.with_metadata, self.with_followers = variant_spec(
            artifact.variant
        )
        self.model = artifact.build_model()
        self.embeddings = artifact.build_embeddings()

    def predict(self, X, pad_to: Optional[int] = None):
        """Forward pass through this version's network.

        *pad_to* fixes the BLAS row count (see ``Sequential.predict``)
        so online micro-batches reproduce offline outputs bitwise.
        """
        return self.model.predict(X, batch_size=pad_to or 1024, pad_to=pad_to)

    def replica_model(self):
        """A per-replica forward-pass clone sharing this version's weights.

        The fused inference kernels reuse per-layer scratch buffers, so
        one ``Sequential`` instance must never run forward passes from
        two threads at once.  Each fleet replica therefore gets its own
        layer stack (own buffers) whose parameter arrays are **aliased**
        to this version's arrays — zero-copy, and marked read-only so a
        stray in-place write on any replica fails loudly instead of
        corrupting every replica at once.  Outputs are bitwise-identical
        to :meth:`predict` because the maths reads the same bits.
        """
        from ..nn import build_paper_network

        clone = build_paper_network(
            self.network,
            input_dim=self.input_dim,
            n_classes=self.n_classes,
            dtype=self.model.dtype,
        )
        clone.build((self.input_dim,))
        shared = [
            param
            for layer in self.model.layers
            for _name, param, _grad in layer.parameters()
        ]
        slots = [
            (layer, name)
            for layer in clone.layers
            for name, _param, _grad in layer.parameters()
        ]
        assert len(shared) == len(slots), "replica architecture drifted from source"
        for (layer, name), param in zip(slots, shared):
            param.setflags(write=False)
            setattr(layer, name, param)
        return clone

    def describe(self) -> dict:
        """JSON-able summary for ``/healthz`` and swap results."""
        return {
            "version": self.version_id,
            "network": self.network,
            "variant": self.variant,
            "input_dim": self.input_dim,
            "n_classes": self.n_classes,
            "fingerprint": self.fingerprint,
            "vocabulary_size": len(self.embeddings),
            "metadata": dict(self.artifact.metadata),
        }


ArtifactSource = Union[str, ServingArtifact]


@guarded_by("_lock", "_active", "_history", "_next_id")
class ModelRegistry:
    """Loads artifacts and atomically publishes model versions."""

    def __init__(self, retry_policy: Optional[RetryPolicy] = None) -> None:
        self._lock = threading.RLock()
        self._active: Optional[ModelVersion] = None
        self._history: List[ModelVersion] = []
        self._next_id = 1
        self.retry_policy = retry_policy

    def _load(
        self, source: ArtifactSource, site: str = "serving.registry.load"
    ) -> ServingArtifact:
        """Resolve *source* into a validated artifact (with retries).

        *site* names the fault-injection/retry site so chaos plans can
        target initial loads and hot-swaps independently.
        """

        def attempt() -> ServingArtifact:
            faults.inject(site)
            if isinstance(source, ServingArtifact):
                return source
            return load_artifact(source)

        if self.retry_policy is None:
            return attempt()
        return self.retry_policy.call(attempt, site=site)

    def _check_fingerprint(
        self, artifact: ServingArtifact, expect_fingerprint: Optional[str]
    ) -> None:
        if (
            expect_fingerprint is not None
            and artifact.fingerprint != expect_fingerprint
        ):
            raise ArtifactError(
                f"fingerprint mismatch: artifact carries "
                f"{artifact.fingerprint[:12]}..., expected "
                f"{expect_fingerprint[:12]}... — the artifact was trained "
                f"under a different pipeline configuration"
            )

    def _publish(self, version: ModelVersion) -> ModelVersion:
        """Number *version* and flip the active pointer to it."""
        with self._lock:
            version.version_id = self._next_id
            self._next_id += 1
            self._active = version
            self._history.append(version)
        obs.counter("serving.versions_published").inc()
        return version

    def load(
        self,
        source: ArtifactSource,
        expect_fingerprint: Optional[str] = None,
    ) -> ModelVersion:
        """Load, build and probe-verify *source*, then publish it.

        Raises :class:`ArtifactError` for a missing, corrupt or
        mismatched artifact, including one whose rebuilt network does
        not reproduce its pinned probe outputs.
        """
        artifact = self._load(source)
        self._check_fingerprint(artifact, expect_fingerprint)
        return self._publish(ModelVersion(artifact))

    def swap(
        self,
        source: ArtifactSource,
        expect_fingerprint: Optional[str] = None,
    ) -> ModelVersion:
        """Hot-swap to a new version without dropping in-flight work.

        The candidate is loaded, compatibility-checked against the
        active version, built and probe-verified entirely off to the
        side; only then does the active pointer flip (a single reference
        assignment under the lock).  Batches that already resolved the
        old version keep serving from it — the old :class:`ModelVersion`
        object stays alive in history.  Any refusal is a
        :class:`SwapError` and leaves the active version untouched.
        """
        active = self.active()
        try:
            artifact = self._load(source, site="serving.swap")
            self._check_fingerprint(artifact, expect_fingerprint)
            for attr in ("variant", "network", "input_dim", "n_classes"):
                expected = getattr(active, attr)
                actual = getattr(artifact, attr)
                if expected != actual:
                    raise ArtifactError(
                        f"candidate {attr} {actual!r} does not match the "
                        f"serving setup {expected!r}"
                    )
            version = ModelVersion(artifact)
        except ArtifactError as exc:
            obs.counter("serving.swap_failures").inc()
            raise SwapError(f"swap rejected: {exc}") from exc
        self._publish(version)
        obs.counter("serving.swaps").inc()
        return version

    def active(self) -> ModelVersion:
        """The currently published version (raises when none is)."""
        with self._lock:
            if self._active is None:
                raise ModelUnavailable("no model version has been published")
            return self._active

    def versions(self) -> List[dict]:
        """Summaries of every version ever published, oldest first."""
        with self._lock:
            return [v.describe() for v in self._history]
