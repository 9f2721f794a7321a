"""The §4.9 loop, driven in-process through the program's public functions.

:class:`Deployment` owns a WAL-backed streaming ``Database`` in a temp
dir and an :class:`~repro.streaming.IncrementalPipeline` over it.  Each
step is one public call, timed from outside: ``append_news`` /
``append_tweets``, ``cycle``, ``Sequential.fit`` of ``MLP 1`` on the A2
dataset with the likes target, and ``save_artifact``.  Every step also
checks its own output and raises :class:`CheckFailed` when it is wrong.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.pipeline import PipelineResult
from repro.datasets import train_validation_split
from repro.nn import EarlyStopping, accuracy, build_paper_network, one_hot
from repro.serving import save_artifact
from repro.store import Database
from repro.streaming import IncrementalPipeline, StreamingConfig

from server import CheckFailed

VARIANT = "A2"
NETWORK = "MLP 1"
N_CLASSES = 3
#: Epochs of a warm start.  A fixed count, so each refresh step does the
#: same training work whatever the seed; cold starts use the paper's
#: early stopping.
WARM_EPOCHS = 15
#: The ``--max-batch-size`` the server is started with: every forward
#: pass is padded to it.
SERVE_BATCH = 32


def paper_config() -> PipelineConfig:
    """The paper settings of ``benchmarks/conftest.py``: 300-d embeddings."""
    return PipelineConfig(
        n_topics=14,
        nmf_max_iter=300,
        n_news_events=30,
        n_twitter_events=60,
        embedding_dim=300,
        min_term_support=8,
        min_event_records=10,
        max_epochs=40,
        batch_size=256,
        seed=42,
    )


@dataclass
class Artifact:
    """One exported model and the probe request that checks it."""

    path: str
    fingerprint: str
    probe: Dict[str, Any]
    expected: List[float]
    size_mb: float


@dataclass
class Step:
    """Timings (seconds) and counts of one append/cycle/fit/export step."""

    append_s: float = 0.0
    cycle_s: float = 0.0
    fit_s: float = 0.0
    export_s: float = 0.0
    docs: int = 0
    dropped_late: int = 0
    nmf_iterations: int = 0
    vocab: int = 0
    n_events: int = 0
    event_tweets: int = 0
    rows: int = 0
    epochs: int = 0
    val_accuracy: float = 0.0
    twitter_events: List[Any] = field(default_factory=list)


class Deployment:
    """One streaming deployment: store, pipeline, and the live weights."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.config = paper_config()
        self.database = Database("perfbench", wal_dir=os.path.join(workdir, "wal"))
        self.pipeline = IncrementalPipeline(
            self.config, StreamingConfig(), database=self.database
        )
        self.sent = {"news": 0, "tweets": 0}
        self.weights: Optional[List[np.ndarray]] = None
        self.artifacts = 0

    def close(self) -> None:
        self.database.close()

    # -- steps -------------------------------------------------------------------

    def append(self, news: List[Dict[str, Any]], tweets: List[Dict[str, Any]], step: Step) -> None:
        started = time.perf_counter()
        acks = []
        if news:
            acks.append((len(news), self.pipeline.append_news(news)))
        if tweets:
            acks.append((len(tweets), self.pipeline.append_tweets(tweets)))
        step.append_s = time.perf_counter() - started
        step.dropped_late = sum(ack.dropped_late for _sent, ack in acks)
        for sent, ack in acks:
            if ack.accepted != sent or ack.dropped_late:
                raise CheckFailed(
                    f"{ack.collection}: sent {sent}, accepted {ack.accepted}, "
                    f"dropped late {ack.dropped_late}"
                )
        self.sent["news"] += len(news)
        self.sent["tweets"] += len(tweets)
        step.docs = len(news) + len(tweets)

    def cycle(self, step: Step) -> PipelineResult:
        started = time.perf_counter()
        result = self.pipeline.cycle()
        step.cycle_s = time.perf_counter() - started
        folded = {"news": len(self.pipeline.news_ed), "tweets": len(self.pipeline.twitter_ed)}
        if folded != self.sent:
            raise CheckFailed(f"folded {folded} of appended {self.sent}")
        if VARIANT not in result.datasets:
            raise CheckFailed(f"cycle built no {VARIANT} dataset")
        step.nmf_iterations = int(result.nmf.n_iterations)
        step.vocab = len(result.embeddings)
        step.n_events = len(result.news_events) + len(result.twitter_events)
        step.event_tweets = len(result.event_tweets)
        step.rows = int(result.datasets[VARIANT].n_samples)
        step.twitter_events = list(result.twitter_events)
        return result

    def fit(self, result: PipelineResult, step: Step):
        """Train ``MLP 1``; warm-starts from the live weights when they fit."""
        cfg = self.config
        epochs, stopping = cfg.max_epochs, EarlyStopping(patience=cfg.early_stopping_patience)
        dataset = result.datasets[VARIANT]
        labels = dataset.y_likes
        split = train_validation_split(
            dataset.n_samples,
            validation_fraction=cfg.validation_fraction,
            seed=cfg.seed,
            stratify=labels,
        )
        model = build_paper_network(NETWORK, input_dim=dataset.n_features, seed=cfg.seed)
        model.build((dataset.n_features,))
        if self.weights is not None and [w.shape for w in self.weights] == [
            w.shape for w in model.get_weights()
        ]:
            model.set_weights(self.weights)
            epochs, stopping = WARM_EPOCHS, None
        started = time.perf_counter()
        history = model.fit(
            dataset.X[split.train],
            one_hot(labels[split.train], N_CLASSES),
            epochs=epochs,
            batch_size=cfg.batch_size,
            early_stopping=stopping,
        )
        step.fit_s = time.perf_counter() - started
        step.epochs = int(history.epochs)
        step.val_accuracy = float(
            accuracy(labels[split.validation], model.predict(dataset.X[split.validation]))
        )
        self.weights = model.get_weights()
        return model

    def export(self, result: PipelineResult, model, step: Step) -> Artifact:
        """``save_artifact`` under a content-derived fingerprint."""
        self.artifacts += 1
        digest = hashlib.sha256(str(self.artifacts).encode("ascii"))
        for weight in self.weights or []:
            digest.update(np.ascontiguousarray(weight).tobytes())
        fingerprint = digest.hexdigest()[:32]
        path = os.path.join(self.workdir, f"artifact-{self.artifacts}")
        started = time.perf_counter()
        save_artifact(
            path,
            model,
            result.embeddings,
            VARIANT,
            NETWORK,
            fingerprint=fingerprint,
            metadata={"origin": "perfbench", "artifact": self.artifacts},
        )
        step.export_s = time.perf_counter() - started
        size = sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))
        # The probe is a real dataset row: its served answer must equal
        # the exported model's padded forward pass bit for bit.
        dataset = result.datasets[VARIANT]
        index = dataset.n_samples // 2
        record = result.event_tweets[index]
        expected = model.predict(
            dataset.X[index:index + 1], batch_size=SERVE_BATCH, pad_to=SERVE_BATCH
        )[0]
        probe = {
            "tokens": list(record.tokens),
            "followers": int(record.followers),
            "created_at": record.created_at.isoformat(),
            "vocabulary": sorted(record.event_vocabulary),
            "magnitudes": dict(record.magnitudes),
        }
        return Artifact(path, fingerprint, probe, expected.tolist(), size / 1e6)
