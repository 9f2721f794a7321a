"""The incremental pipeline: per-cycle cost proportional to new data.

:class:`IncrementalPipeline` is the streaming twin of
:class:`~repro.core.pipeline.NewsDiffusionPipeline`.  Records append
through a watermarked :class:`~repro.streaming.ingest.IngestSession`;
each :meth:`IncrementalPipeline.cycle` folds only the documents that
arrived since the previous cycle into persistent derived state —
preprocessed corpora, segment token counts, MABED slice windows and
inverted indexes, the related-words cache — and then re-runs the cheap
global steps over that state.  The output is a regular
:class:`~repro.core.pipeline.PipelineResult`.

Every stage module comes from the same factory in
:mod:`repro.core.pipeline` the batch pipeline uses.  Parity contract
(checked by the differential harness in ``tests/streaming``):

* **exact path** (``topic_mode="cold"``, the default): every product
  (events, topics, embeddings, correlation, dataset tensors) is
  *bitwise identical* to a batch :meth:`NewsDiffusionPipeline.run` over
  the same documents, however the arrivals were chunked;
* **warm path** (``topic_mode="warm"``): NMF warm-starts from the
  previous factorization — same objective, different trajectory, so
  topics are tolerance-comparable rather than bitwise (MABED events and
  LSA embeddings stay bitwise).

Crash safety: the store's WAL is the source of truth; the optional
:class:`~repro.streaming.state.StreamingStateStore` checkpoint is only
an optimization.  It is written after a cycle completes (never leads
the acknowledged data), and a reopened pipeline folds whatever the
checkpoint is missing straight from the store.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from datetime import timedelta
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, TypeVar

import numpy as np

from .. import obs
from ..core.config import PipelineConfig
from ..core.features import TweetRecord
from ..core.pipeline import (
    BACKGROUND_MIN_COUNT,
    NEWS_TM_MAX_DF_RATIO,
    NEWS_TM_MIN_DF,
    PipelineResult,
    background_embeddings,
    correlation_module,
    feature_module,
    news_detector,
    news_ed_document,
    news_tm_tokens,
    trending_module,
    tweet_record_of,
    twitter_detector,
    twitter_ed_document,
)
from ..datasets import Dataset, VARIANT_NAMES, build_all_datasets
from ..embeddings import PretrainedEmbeddings
from ..events import Event
from ..events.timeslice import TimestampedDocument
from ..store import Database
from ..text.vocabulary import Vocabulary
from ..topics.nmf import NMF, NMFResult
from ..weighting.matrix import DocumentTermMatrix
from .corpus import (
    SegmentCounts,
    TokenInterner,
    assemble_counts,
    combined_counts,
)
from .ingest import IngestAck, IngestSession
from .mabed import IncrementalMABED
from .state import StreamingStateStore

T = TypeVar("T")

TOPIC_MODES = ("cold", "warm")


@dataclass
class StreamingConfig:
    """Knobs specific to the incremental pipeline.

    ``topic_mode`` selects the exact or warm-started NMF (see the module
    docstring for the parity contract of each).
    """

    #: Records older than ``watermark = max(created_at) - allowed_lateness``
    #: are dropped at ingest; anything newer is folded (re-anchoring the
    #: slice windows when needed).
    allowed_lateness: timedelta = timedelta(0)
    #: "cold": re-factorize from the seeded random init (bitwise equal to
    #: batch).  "warm": init from the previous cycle's factors.
    topic_mode: str = "cold"

    def __post_init__(self) -> None:
        if self.allowed_lateness < timedelta(0):
            raise ValueError("allowed_lateness must be >= 0")
        if self.topic_mode not in TOPIC_MODES:
            raise ValueError(
                f"topic_mode must be one of {TOPIC_MODES}, got {self.topic_mode!r}"
            )


def _hash_rng(label: str) -> np.random.Generator:
    """Deterministic, arrival-order-independent generator for *label*."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


class IncrementalPipeline:
    """Streaming counterpart of the Figure-1 pipeline.

    Usage::

        pipeline = IncrementalPipeline(config, StreamingConfig())
        pipeline.append_news(articles)     # durable, watermarked
        pipeline.append_tweets(tweets)
        result = pipeline.cycle()          # O(new data) fold + detect

    The instance owns a streaming :class:`~repro.store.Database` (or
    wraps one passed in) and an :class:`IngestSession` over it.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        streaming: Optional[StreamingConfig] = None,
        database: Optional[Database] = None,
        state_dir: Optional[str] = None,
    ) -> None:
        self.config = config or PipelineConfig()
        self.streaming = streaming or StreamingConfig()
        self.database = (
            database if database is not None else Database("streaming")
        )
        self.ingest = IngestSession.resume(
            self.database, allowed_lateness=self.streaming.allowed_lateness
        )
        self._reset_derived()
        self._store: Optional[StreamingStateStore] = None
        if state_dir is not None:
            self._store = StreamingStateStore(
                state_dir, config=self.config, key=self._state_key()
            )
            self._try_restore()

    def _state_key(self) -> str:
        s = self.streaming
        return f"{s.topic_mode}:{s.allowed_lateness.total_seconds()}"

    def _reset_derived(self) -> None:
        self.news_tm: List[List[str]] = []
        self.news_ed: List[TimestampedDocument] = []
        self.twitter_ed: List[TimestampedDocument] = []
        self.tweet_records: List[TweetRecord] = []
        self._tm_seg = SegmentCounts(TokenInterner())
        background = TokenInterner()
        self._bg_news_ed = SegmentCounts(background)
        self._bg_twitter_ed = SegmentCounts(background)
        self._bg_news_tm = SegmentCounts(background)
        self.mabed_news = IncrementalMABED(news_detector(self.config))
        self.mabed_twitter = IncrementalMABED(twitter_detector(self.config))
        self._last_ids: Dict[str, int] = {"news": 0, "tweets": 0}
        self._cycle = 0
        self._nmf_state: Optional[Dict[str, Any]] = None

    # -- ingestion ---------------------------------------------------------

    def append_news(self, records: Iterable[Dict[str, Any]]) -> IngestAck:
        """Durably append news articles (see :meth:`IngestSession.append`)."""
        return self.ingest.append("news", records)

    def append_tweets(self, records: Iterable[Dict[str, Any]]) -> IngestAck:
        """Durably append tweets."""
        return self.ingest.append("tweets", records)

    # -- folding -----------------------------------------------------------

    def _new_documents(self, collection: str, folded: int) -> List[Dict[str, Any]]:
        if collection not in self.database:
            return []
        coll = self.database[collection]
        if len(coll) <= folded:
            return []
        return list(
            coll.find({"_id": {"$gt": self._last_ids[collection]}})
        )

    def _fold(self) -> Tuple[int, int]:
        """Fold documents appended since the last cycle; O(new data)."""
        new_news = self._new_documents("news", len(self.news_ed))
        new_news_ed: List[TimestampedDocument] = []
        for doc in new_news:
            tokens = news_tm_tokens(doc)
            ed_doc = news_ed_document(doc)
            self.news_tm.append(tokens)
            self.news_ed.append(ed_doc)
            self._tm_seg.append(tokens)
            self._bg_news_ed.append(ed_doc.tokens)
            self._bg_news_tm.append(tokens)
            new_news_ed.append(ed_doc)
            self._last_ids["news"] = doc["_id"]

        new_tweets = self._new_documents("tweets", len(self.twitter_ed))
        new_twitter_ed: List[TimestampedDocument] = []
        for doc in new_tweets:
            ed_doc = twitter_ed_document(doc)
            self.twitter_ed.append(ed_doc)
            self.tweet_records.append(tweet_record_of(doc))
            self._bg_twitter_ed.append(ed_doc.tokens)
            new_twitter_ed.append(ed_doc)
            self._last_ids["tweets"] = doc["_id"]

        self.mabed_news.extend(new_news_ed)
        self.mabed_twitter.extend(new_twitter_ed)
        obs.counter("streaming.folded_documents").inc(
            len(new_news) + len(new_tweets)
        )
        return len(new_news), len(new_tweets)

    # -- stages ------------------------------------------------------------

    def _topic_model(self) -> NMFResult:
        """TFIDF_N + NMF over the incrementally assembled NewsTM matrix.

        ``topic_mode="cold"`` reruns the seeded factorization — bitwise
        the batch ``extract_topics`` path (same matrix bytes, same
        init).  ``topic_mode="warm"`` initializes from the previous
        cycle's factors mapped onto the current vocabulary.
        """
        cfg = self.config
        vocabulary = Vocabulary.from_counts(
            self._tm_seg.term_counts,
            self._tm_seg.doc_counts,
            self._tm_seg.num_docs,
            min_df=NEWS_TM_MIN_DF,
            max_df_ratio=NEWS_TM_MAX_DF_RATIO,
        )
        counts = assemble_counts([self._tm_seg], vocabulary)
        dtm = DocumentTermMatrix.from_counts(
            counts, vocabulary, weighting="tfidf_n"
        )
        model = NMF(
            n_topics=cfg.n_topics, max_iter=cfg.nmf_max_iter, seed=cfg.seed
        )
        init = None
        if self.streaming.topic_mode == "warm":
            init = self._warm_nmf_init(dtm)
            if init is None:
                obs.counter("streaming.nmf.cold_starts").inc()
            else:
                obs.counter("streaming.nmf.warm_starts").inc()
        result = model.fit(dtm, top_terms=cfg.topic_top_terms, init=init)
        if self.streaming.topic_mode == "warm":
            self._nmf_state = {
                "W": result.W,
                "H": result.H,
                "terms": list(dtm.vocabulary.terms()),
            }
        return result

    def _warm_nmf_init(
        self, dtm: DocumentTermMatrix
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Previous factors mapped onto the current matrix, or None.

        Retained terms keep their topic loadings (columns of H matched
        by term string); documents are append-only, so previous W rows
        map positionally.  New rows/columns get deterministic hash-seeded
        entries at the same scale as the cold init, independent of
        arrival chunking.  Falls back to a cold start when the topic
        count changed (k depends on matrix shape) or state is missing.
        """
        state = self._nmf_state
        if state is None:
            return None
        A = dtm.matrix
        n, m = A.shape
        k = min(self.config.n_topics, n, m)
        W_prev: np.ndarray = state["W"]
        H_prev: np.ndarray = state["H"]
        if k < 1 or W_prev.shape[1] != k or W_prev.shape[0] > n:
            return None
        scale = float(np.sqrt(NMF._mean(A) / max(k, 1))) or 1.0
        seed = self.config.seed
        prev_col = {term: j for j, term in enumerate(state["terms"])}
        H0 = np.empty((k, m), dtype=np.float64)
        for j, term in enumerate(dtm.vocabulary.terms()):
            pj = prev_col.get(term)
            if pj is None:
                H0[:, j] = _hash_rng(f"nmf-h:{seed}:{term}").random(k) * scale
            else:
                H0[:, j] = H_prev[:, pj]
        n_prev = W_prev.shape[0]
        W0 = np.empty((n, k), dtype=np.float64)
        W0[:n_prev] = W_prev
        for i in range(n_prev, n):
            W0[i] = _hash_rng(f"nmf-w:{seed}:{i}").random(k) * scale
        return W0, H0

    def _embeddings(self) -> PretrainedEmbeddings:
        """Background embeddings over the incrementally kept corpus.

        The batch pipeline's vocabulary and TFIDF matrix, assembled from
        cached counts, through the same :func:`background_embeddings`.
        """
        segments = [self._bg_news_ed, self._bg_twitter_ed, self._bg_news_tm]
        term_counts, doc_counts, num_docs = combined_counts(segments)
        vocabulary = Vocabulary.from_counts(
            term_counts, doc_counts, num_docs, min_count=BACKGROUND_MIN_COUNT
        )
        dtm = DocumentTermMatrix.from_counts(
            assemble_counts(segments, vocabulary), vocabulary, weighting="tfidf"
        )
        return background_embeddings(self.config, dtm)

    # -- orchestration -----------------------------------------------------

    @staticmethod
    def _timed(
        timings: Dict[str, float], name: str, func: Callable[[], T]
    ) -> T:
        with obs.span(f"streaming.{name}"):
            started = time.perf_counter()
            try:
                return func()
            finally:
                timings[name] = time.perf_counter() - started

    def cycle(self) -> PipelineResult:
        """Fold new data, then produce a full :class:`PipelineResult`.

        Stage structure mirrors :meth:`NewsDiffusionPipeline._run_stages`
        (same module factories, same ordering) with the expensive
        per-document work replaced by incremental folds.
        """
        cfg = self.config
        timings: Dict[str, float] = {}
        with obs.span("streaming.cycle") as cycle_span:
            started = time.perf_counter()
            with obs.span("streaming.fold") as fold_span:
                n_new_news, n_new_tweets = self._fold()
                fold_span.annotate(
                    n_new_news=n_new_news, n_new_tweets=n_new_tweets
                )
            timings["fold"] = time.perf_counter() - started

            nmf = self._timed(timings, "topic_modeling", self._topic_model)
            news_events: List[Event] = self._timed(
                timings,
                "news_event_detection",
                lambda: self.mabed_news.detect(cfg.n_news_events),
            )
            twitter_events: List[Event] = self._timed(
                timings,
                "twitter_event_detection",
                lambda: self.mabed_twitter.detect(cfg.n_twitter_events),
            )
            embeddings = self._timed(timings, "embeddings", self._embeddings)

            trending = self._timed(
                timings,
                "trending_news",
                lambda: trending_module(cfg, embeddings).extract(
                    nmf.topics, news_events
                ),
            )
            correlation = self._timed(
                timings,
                "correlation",
                lambda: correlation_module(cfg, embeddings).correlate(
                    trending, twitter_events
                ),
            )
            records = self._timed(
                timings,
                "feature_creation",
                lambda: feature_module(cfg).extract(
                    correlation.pairs, self.tweet_records
                ),
            )
            datasets: Dict[str, Dataset] = {}
            if records:
                datasets = self._timed(
                    timings,
                    "dataset_building",
                    lambda: build_all_datasets(
                        records, embeddings, VARIANT_NAMES, cfg.workers or None
                    ),
                )

            self._cycle += 1
            if self._store is not None:
                self._timed(timings, "checkpoint", self._checkpoint)

            cycle_span.annotate(
                cycle=self._cycle,
                n_new_news=n_new_news,
                n_new_tweets=n_new_tweets,
                n_documents=len(self.news_ed) + len(self.twitter_ed),
                n_topics=len(nmf.topics),
                n_news_events=len(news_events),
                n_twitter_events=len(twitter_events),
                n_event_tweets=len(records),
            )
            return PipelineResult(
                topics=nmf.topics,
                nmf=nmf,
                news_events=news_events,
                twitter_events=twitter_events,
                trending=trending,
                correlation=correlation,
                event_tweets=records,
                datasets=datasets,
                embeddings=embeddings,
                timings_seconds=timings,
            )

    @property
    def cycles_completed(self) -> int:
        """Number of :meth:`cycle` calls completed (including restored)."""
        return self._cycle

    # -- persistence -------------------------------------------------------

    def _checkpoint(self) -> None:
        assert self._store is not None
        manifest: Dict[str, Any] = {
            "last_ids": dict(self._last_ids),
            "cycle": self._cycle,
        }
        arrays: Dict[str, np.ndarray] = {}
        if self._nmf_state is not None:
            manifest["nmf_terms"] = list(self._nmf_state["terms"])
            arrays["nmf_W"] = np.asarray(self._nmf_state["W"])
            arrays["nmf_H"] = np.asarray(self._nmf_state["H"])
        stages = {
            "preprocess_news_tm": self.news_tm,
            "preprocess_news_ed": self.news_ed,
            "preprocess_twitter_ed": self.twitter_ed,
            "tweet_records": self.tweet_records,
        }
        self._store.save(manifest, stages, arrays)

    def _try_restore(self) -> None:
        """Adopt a valid checkpoint; silently rebuild from scratch if not.

        A checkpoint is adopted only when it *lags or matches* the store
        (derived state must never lead the acknowledged data — the store
        WAL is the source of truth after a crash).  The fold at the next
        :meth:`cycle` replays whatever documents the checkpoint missed.
        """
        assert self._store is not None
        bundle = self._store.load()
        if bundle is None:
            return
        manifest, stages, arrays = bundle
        last_ids = {
            str(k): int(v)
            for k, v in dict(manifest.get("last_ids", {})).items()
        }
        news_tm = stages.get("preprocess_news_tm", [])
        news_ed = stages.get("preprocess_news_ed", [])
        twitter_ed = stages.get("preprocess_twitter_ed", [])
        tweet_records = stages.get("tweet_records", [])
        consistent = (
            len(news_tm) == len(news_ed)
            and len(tweet_records) == len(twitter_ed)
            and last_ids.get("news", 0) == len(news_ed)
            and last_ids.get("tweets", 0) == len(twitter_ed)
        )
        if consistent:
            for name, folded in (
                ("news", len(news_ed)),
                ("tweets", len(twitter_ed)),
            ):
                stored = (
                    len(self.database[name]) if name in self.database else 0
                )
                if folded > stored:
                    consistent = False
                    break
        if not consistent:
            obs.counter("streaming.checkpoint.discarded").inc()
            return

        self.news_tm = list(news_tm)
        self.news_ed = list(news_ed)
        self.twitter_ed = list(twitter_ed)
        self.tweet_records = list(tweet_records)
        self._last_ids.update(last_ids)
        self._cycle = int(manifest.get("cycle", 0))

        # Replay the derived per-document state in arrival order — the
        # same fold the live run performed, so windows, indexes, and
        # segment counters come back identical.
        self._tm_seg.extend(self.news_tm)
        self._bg_news_ed.extend(doc.tokens for doc in self.news_ed)
        self._bg_twitter_ed.extend(doc.tokens for doc in self.twitter_ed)
        self._bg_news_tm.extend(self.news_tm)
        self.mabed_news.extend(self.news_ed)
        self.mabed_twitter.extend(self.twitter_ed)

        if "nmf_terms" in manifest and "nmf_W" in arrays:
            self._nmf_state = {
                "W": np.asarray(arrays["nmf_W"], dtype=np.float64),
                "H": np.asarray(arrays["nmf_H"], dtype=np.float64),
                "terms": [str(term) for term in manifest["nmf_terms"]],
            }
        obs.counter("streaming.checkpoint.restored").inc()
