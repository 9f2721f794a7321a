"""Serving artifacts: a trained model + frozen embeddings on disk.

One artifact directory is the unit of deployment the
:class:`~repro.serving.registry.ModelRegistry` loads and hot-swaps:

    artifact/
        artifact.json    metadata: network/variant names, dims, compute
                         dtype, the PipelineConfig fingerprint,
                         vocabulary order
        weights.npz      Sequential parameters (``w0`` .. ``wN``)
        embeddings.npz   the word-vector matrix, rows ordered like the
                         vocabulary list in artifact.json
        probes.npz       32 seeded input rows (``inputs``) and the
                         outputs the exported network gave them
                         (``outputs``) in one forward pass of that many
                         rows

All writes go through atomic temp-file + rename so a crashed export
never leaves a half-written artifact that a registry could load.
:meth:`ServingArtifact.build_model` re-scores the probe rows on the
network it rebuilds and refuses the artifact unless the outputs match
the pinned ones bit for bit, so corrupt weights never reach traffic.
The network is rebuilt in the dtype recorded at export, never in the
loading process's ``REPRO_NN_DTYPE``; bitwise equality still assumes
the loader runs the exporter's numeric platform (numpy build, BLAS,
CPU), and a refusal names both.
"""

from __future__ import annotations

import io
import json
import os
import platform
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..datasets.builders import variant_spec
from ..embeddings import PretrainedEmbeddings
from ..nn import Sequential, build_paper_network, resolve_dtype
from ..resilience.checkpoint import atomic_write, config_fingerprint
from .errors import ArtifactError

ARTIFACT_VERSION = 2
METADATA_FILE = "artifact.json"
WEIGHTS_FILE = "weights.npz"
EMBEDDINGS_FILE = "embeddings.npz"
PROBES_FILE = "probes.npz"

#: Probe rows pinned in every artifact, drawn from a fixed seed and
#: scored in one forward pass of exactly that many rows.  32 is the
#: default serving batch (``ServingConfig.max_batch_size``), so probes
#: run the serving shape; and a ReLU unit that stays silent on all of
#: them (hiding a corrupt weight that feeds it) is far rarer than with a
#: handful of rows.
PROBE_ROWS = 32
PROBE_SEED = 0


@dataclass
class ServingArtifact:
    """An in-memory, validated serving artifact."""

    network: str
    variant: str
    input_dim: int
    n_classes: int
    embedding_dim: int
    fingerprint: str
    dtype: np.dtype
    weights: List[np.ndarray]
    words: List[str]
    matrix: np.ndarray
    probe_inputs: np.ndarray
    probe_outputs: np.ndarray
    metadata: Dict[str, object] = field(default_factory=dict)

    def build_embeddings(self) -> PretrainedEmbeddings:
        """Reconstruct the frozen embedding store."""
        vectors = {w: self.matrix[i] for i, w in enumerate(self.words)}
        return PretrainedEmbeddings(vectors, self.embedding_dim)

    def build_model(self) -> Sequential:
        """Rebuild the network, load the weights, and verify the probes.

        Raises :class:`ArtifactError` unless the rebuilt network scores
        the pinned probe rows bitwise-equal to the outputs recorded at
        export, as finite, non-negative ``n_classes`` distributions.
        """
        model = _rebuild(
            self.network, self.input_dim, self.n_classes, self.dtype, self.weights
        )
        outputs = _score_probes(model, self.probe_inputs)
        expected = self.probe_outputs
        if (
            outputs.shape != expected.shape
            or outputs.dtype != expected.dtype
            or outputs.tobytes() != expected.tobytes()
        ):
            raise ArtifactError(
                f"probe check failed: the rebuilt {self.dtype.name} network's "
                f"outputs on the {len(self.probe_inputs)} pinned probe rows "
                f"differ from the ones recorded at export (corrupt weights, "
                f"or a numeric platform other than the exporter's: this one "
                f"runs numpy {np.__version__} on {platform.machine()})"
            )
        if (
            outputs.shape[1:] != (self.n_classes,)
            or not np.isfinite(outputs).all()
            or (outputs < 0).any()
            or not np.allclose(outputs.sum(axis=1), 1.0, rtol=0.0, atol=1e-6)
        ):
            raise ArtifactError(
                f"probe check failed: outputs are not finite, non-negative "
                f"{self.n_classes}-class distributions"
            )
        return model


def _rebuild(
    network: str,
    input_dim: int,
    n_classes: int,
    dtype: np.dtype,
    weights: List[np.ndarray],
) -> Sequential:
    """*network*'s architecture with *weights* loaded (as serving builds it)."""
    model = build_paper_network(
        network, input_dim=input_dim, n_classes=n_classes, dtype=dtype
    )
    model.build((input_dim,))
    try:
        model.set_weights(weights)
    except ValueError as exc:
        raise ArtifactError(f"weights do not fit {network!r}: {exc}") from exc
    return model


def _score_probes(model: Sequential, inputs: np.ndarray) -> np.ndarray:
    """The probe forward pass: all rows at once, so the bits are reproducible."""
    rows = len(inputs)
    return model.predict(inputs, batch_size=rows, pad_to=rows)


def _npz_bytes(arrays: Dict[str, np.ndarray]) -> bytes:
    """Serialize arrays to npz bytes (for atomic single-write output)."""
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def save_artifact(
    directory: str,
    model: Sequential,
    embeddings: PretrainedEmbeddings,
    variant: str,
    network: str,
    config=None,
    fingerprint: Optional[str] = None,
    metadata: Optional[Dict[str, object]] = None,
) -> str:
    """Export *model* + *embeddings* as a loadable artifact directory.

    The fingerprint binds the artifact to the pipeline configuration it
    was trained under: pass the :class:`~repro.core.config.PipelineConfig`
    as *config* (hashed via :func:`repro.resilience.config_fingerprint`)
    or an explicit *fingerprint* string.

    The artifact records *model*'s compute dtype, and every load
    rebuilds *network* in it.  The probe outputs are scored on that
    rebuild of the exported weights, exactly as a registry rebuilds it at
    load, so they are the answers the serving stack will give.
    """
    variant_spec(variant)  # validates the name early
    if model._input_shape is None:
        raise ArtifactError("cannot export an unbuilt model")
    if fingerprint is None:
        fingerprint = (
            config_fingerprint(config) if config is not None else "unfingerprinted"
        )
    input_dim = int(model._input_shape[0])
    n_classes = int(model.output_shape((input_dim,))[0])
    words = sorted(embeddings.words())
    matrix = (
        np.vstack([embeddings[w] for w in words])
        if words
        else np.zeros((0, embeddings.dim))
    )
    dtype = model.dtype
    weights = model.get_weights()
    probe_inputs = np.random.default_rng(PROBE_SEED).standard_normal(
        (PROBE_ROWS, input_dim)
    )
    probe_outputs = _score_probes(
        _rebuild(network, input_dim, n_classes, dtype, weights), probe_inputs
    )
    os.makedirs(directory, exist_ok=True)
    atomic_write(
        os.path.join(directory, WEIGHTS_FILE),
        _npz_bytes({f"w{i}": w for i, w in enumerate(weights)}),
    )
    atomic_write(
        os.path.join(directory, EMBEDDINGS_FILE), _npz_bytes({"matrix": matrix})
    )
    atomic_write(
        os.path.join(directory, PROBES_FILE),
        _npz_bytes({"inputs": probe_inputs, "outputs": probe_outputs}),
    )
    payload = {
        "version": ARTIFACT_VERSION,
        "network": network,
        "variant": variant,
        "input_dim": input_dim,
        "n_classes": n_classes,
        "embedding_dim": embeddings.dim,
        "fingerprint": fingerprint,
        "n_weights": len(weights),
        "dtype": dtype.name,
        "words": words,
        "metadata": dict(metadata or {}),
    }
    # Metadata lands last: its presence marks the artifact complete.
    atomic_write(
        os.path.join(directory, METADATA_FILE),
        (json.dumps(payload, indent=2, default=str) + "\n").encode("utf-8"),
    )
    return directory


def load_artifact(directory: str) -> ServingArtifact:
    """Load and validate an artifact directory.

    Raises :class:`ArtifactError` (never a raw traceback type) for any
    missing/corrupt/inconsistent state, so front-ends can turn it into
    a clean operator-facing message.
    """
    meta_path = os.path.join(directory, METADATA_FILE)
    try:
        with open(meta_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise ArtifactError(
            f"no serving artifact at {directory!r} (missing {METADATA_FILE})"
        ) from None
    except (json.JSONDecodeError, OSError) as exc:
        raise ArtifactError(f"corrupt {METADATA_FILE} in {directory!r}: {exc}") from exc
    if payload.get("version") != ARTIFACT_VERSION:
        raise ArtifactError(
            f"artifact version {payload.get('version')!r} unsupported "
            f"(expected {ARTIFACT_VERSION})"
        )
    required = (
        "network", "variant", "input_dim", "n_classes",
        "embedding_dim", "fingerprint", "n_weights", "dtype", "words",
    )
    missing = [key for key in required if key not in payload]
    if missing:
        raise ArtifactError(f"artifact metadata missing fields: {missing}")
    try:
        input_dim, n_classes, embedding_dim, n_weights = (
            int(payload[key])
            for key in ("input_dim", "n_classes", "embedding_dim", "n_weights")
        )
        if not isinstance(payload["dtype"], str):
            raise ValueError(f"dtype must be a string, got {payload['dtype']!r}")
        dtype = resolve_dtype(payload["dtype"])
    except (TypeError, ValueError) as exc:
        raise ArtifactError(f"invalid {METADATA_FILE} in {directory!r}: {exc}") from exc

    def _load_npz(filename: str) -> Dict[str, np.ndarray]:
        path = os.path.join(directory, filename)
        try:
            with np.load(path) as data:
                return {name: data[name] for name in data.files}
        except FileNotFoundError:
            raise ArtifactError(f"artifact at {directory!r} missing {filename}") from None
        except (OSError, ValueError) as exc:
            raise ArtifactError(f"corrupt {filename} in {directory!r}: {exc}") from exc

    weight_arrays = _load_npz(WEIGHTS_FILE)
    try:
        weights = [weight_arrays[f"w{i}"] for i in range(n_weights)]
    except KeyError as exc:
        raise ArtifactError(f"weights.npz missing entry {exc}") from exc
    matrix = _load_npz(EMBEDDINGS_FILE).get("matrix")
    if matrix is None:
        raise ArtifactError(f"embeddings.npz in {directory!r} has no 'matrix' array")
    words = list(payload["words"])
    if matrix.shape != (len(words), embedding_dim):
        raise ArtifactError(
            f"embedding matrix shape {matrix.shape} does not match "
            f"{len(words)} words x {embedding_dim} dims"
        )
    probes = _load_npz(PROBES_FILE)
    probe_inputs = probes.get("inputs")
    probe_outputs = probes.get("outputs")
    if (
        probe_inputs is None
        or probe_outputs is None
        or probe_inputs.ndim != 2
        or probe_inputs.shape[0] < 1
        or probe_inputs.shape[1] != input_dim
    ):
        raise ArtifactError(
            f"{PROBES_FILE} in {directory!r} must hold 'inputs' "
            f"(rows x {input_dim}) and 'outputs' arrays"
        )
    artifact = ServingArtifact(
        network=str(payload["network"]),
        variant=str(payload["variant"]),
        input_dim=input_dim,
        n_classes=n_classes,
        embedding_dim=embedding_dim,
        fingerprint=str(payload["fingerprint"]),
        dtype=dtype,
        weights=weights,
        words=words,
        matrix=matrix,
        probe_inputs=probe_inputs,
        probe_outputs=probe_outputs,
        metadata=dict(payload.get("metadata") or {}),
    )
    try:
        variant_spec(artifact.variant)
    except KeyError as exc:
        raise ArtifactError(str(exc)) from exc
    return artifact
