"""End-to-end pipeline — the architecture of Figure 1.

Orchestrates every module over a generated (or externally supplied)
world: preprocessing the three corpora, NMF topic extraction, MABED event
detection on news and Twitter, trending-topic extraction, news↔Twitter
correlation, feature creation, dataset building, and audience-interest
prediction.  Timings of each stage are recorded because the paper reports
them throughout §5.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from datetime import timedelta
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from .. import obs
from ..datagen import World
from ..datagen.world import TWITTER_SLANG
from ..datasets import VARIANT_NAMES, Dataset, EventTweet, build_all_datasets
from ..parallel import parallel_map
from ..embeddings import PretrainedEmbeddings
from ..events import MABED, Event, TimestampedDocument
from ..resilience import RetryPolicy, faults
from ..resilience.checkpoint import CheckpointStore
from ..text import (
    is_stopword,
    preprocess_for_event_detection,
    preprocess_for_topic_modeling,
)
from ..text.vocabulary import Vocabulary
from ..topics import NMFResult, Topic, extract_topics
from ..weighting.matrix import DocumentTermMatrix
from .config import PipelineConfig
from .correlation import CorrelationModule, CorrelationResult
from .features import FeatureCreationModule, TweetRecord
from .prediction import AudienceInterestPredictor, TrainingOutcome
from .trending import TrendingNewsModule, TrendingNewsTopic


@dataclass
class PipelineResult:
    """All intermediate and final products of one pipeline run."""

    topics: List[Topic]
    nmf: NMFResult
    news_events: List[Event]
    twitter_events: List[Event]
    trending: List[TrendingNewsTopic]
    correlation: CorrelationResult
    event_tweets: List[EventTweet]
    datasets: Dict[str, Dataset]
    embeddings: PretrainedEmbeddings
    timings_seconds: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        """Human-readable run summary (the §5.5-style counts)."""
        lines = [
            f"topics: {len(self.topics)}",
            f"news events: {len(self.news_events)}",
            f"twitter events: {len(self.twitter_events)}",
            f"trending news topics: {len(self.trending)}",
            f"<trending, twitter event> pairs: {self.correlation.n_pairs}",
            f"unrelated twitter events: "
            f"{len(self.correlation.unrelated_twitter_events)}",
            f"event-tweet records: {len(self.event_tweets)}",
        ]
        for stage, seconds in self.timings_seconds.items():
            lines.append(f"time[{stage}]: {seconds:.2f}s")
        return "\n".join(lines)


#: Stage names in execution order; each runs inside a ``pipeline.<name>``
#: obs span and (when checkpointing) owns one entry in the run directory.
STAGES = (
    "preprocess_news_tm",
    "preprocess_news_ed",
    "preprocess_twitter_ed",
    "topic_modeling",
    "news_event_detection",
    "twitter_event_detection",
    "embeddings",
    "trending_news",
    "correlation",
    "tweet_records",
    "feature_creation",
    "dataset_building",
)


#: NewsTM vocabulary bounds for topic modeling: a term must occur in at
#: least two articles and in at most 70% of them.
NEWS_TM_MIN_DF = 2
NEWS_TM_MAX_DF_RATIO = 0.7
#: Minimum corpus count of a background-corpus word to get an embedding.
BACKGROUND_MIN_COUNT = 2


def news_tm_tokens(doc: Dict[str, Any]) -> List[str]:
    """One news article -> NewsTM tokens (topic-modeling preprocessing).

    Module-level (not a method) so the streaming pipeline's per-document
    incremental preprocessing is guaranteed to be the same function the
    batch pipeline maps — parity by construction.
    """
    return preprocess_for_topic_modeling(
        f"{doc.get('title', '')}. {doc.get('text', '')}"
    )


def news_ed_document(doc: Dict[str, Any]) -> TimestampedDocument:
    """One news article -> NewsED timestamped document for MABED."""
    return TimestampedDocument(
        tokens=preprocess_for_event_detection(
            f"{doc.get('title', '')} {doc.get('text', '')}"
        ),
        created_at=doc["created_at"],
        doc_id=doc["_id"],
    )


def twitter_ed_document(doc: Dict[str, Any]) -> TimestampedDocument:
    """One tweet -> TwitterED timestamped document for MABED."""
    return TimestampedDocument(
        tokens=preprocess_for_event_detection(doc["text"]),
        created_at=doc["created_at"],
        doc_id=doc["_id"],
    )


def tweet_record_of(doc: Dict[str, Any]) -> TweetRecord:
    """One tweet -> :class:`TweetRecord` with feature-module metadata."""
    return TweetRecord(
        tokens=preprocess_for_event_detection(doc["text"]),
        created_at=doc["created_at"],
        author=doc["author"],
        followers=int(doc["followers"]),
        likes=int(doc["likes"]),
        retweets=int(doc["retweets"]),
    )


# -- stage factories: the batch and streaming pipelines build every stage
# module here, so both configure each stage identically by construction.


def _detector(config: PipelineConfig, slice_minutes: int) -> MABED:
    return MABED(
        slice_width=timedelta(minutes=slice_minutes),
        min_term_support=config.min_term_support,
        n_related_words=config.n_related_words,
        theta=config.mabed_theta,
        stopword_filter=is_stopword,
        workers=config.workers or None,
    )


def news_detector(config: PipelineConfig) -> MABED:
    """§4.4 / §5.3: MABED with ``news_slice_minutes`` slices over news."""
    return _detector(config, config.news_slice_minutes)


def twitter_detector(config: PipelineConfig) -> MABED:
    """§4.4 / §5.4: MABED with ``twitter_slice_minutes`` slices over tweets."""
    return _detector(config, config.twitter_slice_minutes)


def background_embeddings(
    config: PipelineConfig, dtm: DocumentTermMatrix
) -> PretrainedEmbeddings:
    """§4.9: the GoogleNews stand-in, LSA over the background TFIDF matrix.

    GoogleNews (2013, news prose) has no entry for platform slang; those
    words are dropped so the SW/RND/SWM variants differ as in §4.7.
    """
    return PretrainedEmbeddings.lsa_from_matrix(
        dtm,
        dim=config.embedding_dim,
        coverage=config.embedding_coverage,
        seed=config.seed,
    ).without(TWITTER_SLANG)


def trending_module(
    config: PipelineConfig, embeddings: PretrainedEmbeddings
) -> TrendingNewsModule:
    """§4.5: the topic↔news-event matcher."""
    return TrendingNewsModule(
        embeddings,
        similarity_threshold=config.trending_similarity_threshold,
    )


def correlation_module(
    config: PipelineConfig, embeddings: PretrainedEmbeddings
) -> CorrelationModule:
    """§4.6: the trending-topic↔Twitter-event correlator."""
    return CorrelationModule(
        embeddings,
        similarity_threshold=config.correlation_similarity_threshold,
        start_window=timedelta(days=config.start_window_days),
        start_slack=timedelta(days=config.start_slack_days),
    )


def feature_module(config: PipelineConfig) -> FeatureCreationModule:
    """§4.7: the event-tweet feature extractor."""
    return FeatureCreationModule(
        min_event_records=config.min_event_records,
        related_word_coverage=config.related_word_coverage,
    )


def world_key(world: World) -> str:
    """Cheap content key of *world* mixed into checkpoint fingerprints.

    Catches the deployment-loop failure mode where the same config runs
    over a *grown* corpus: corpus sizes and the configured time range
    change, so checkpoints from a previous cutoff are invalidated.
    """
    return (
        f"news={len(world.news)};tweets={len(world.tweets)};"
        f"start={world.config.start.isoformat()};"
        f"days={world.config.duration_days}"
    )


def resilient_stage(
    name: str,
    func: Callable[[], Any],
    *,
    policy: Optional[RetryPolicy] = None,
    store: Optional[CheckpointStore] = None,
    resume: bool = False,
    timings: Optional[Dict[str, float]] = None,
) -> Any:
    """Run one pipeline stage with faults, retries, and checkpoints.

    The stage executes inside a ``pipeline.<name>`` obs span annotated
    with ``attempts`` and ``resumed``.  Order of concerns:

    1. with *resume* and a completed checkpoint in *store*, the stored
       output is loaded and the stage body never runs (``resumed=True``,
       ``attempts=0``);
    2. otherwise each attempt first fault-checks the ``pipeline.<name>``
       site (:func:`repro.resilience.faults.inject`) and then calls
       *func*; *policy* absorbs retryable failures with seeded backoff;
    3. on success the output is checkpointed to *store* (when given)
       before the span closes.
    """
    site = f"pipeline.{name}"
    with obs.span(site) as stage_span:
        started = time.perf_counter()
        try:
            if resume and store is not None and store.has(name):
                value = store.load(name)
                stage_span.annotate(attempts=0, resumed=True)
                return value

            attempts = [0]

            def attempt() -> Any:
                attempts[0] += 1
                faults.inject(site)
                return func()

            def record_retry(n: int, exc: BaseException, delay: float) -> None:
                obs.counter("resilience.retries").inc()
                stage_span.annotate(
                    fault=type(exc).__name__, retry_delay_s=round(delay, 6)
                )

            try:
                if policy is None:
                    value = attempt()
                else:
                    value = policy.call(attempt, site=site, on_retry=record_retry)
            finally:
                stage_span.annotate(attempts=attempts[0], resumed=False)
            if store is not None:
                store.save(name, value)
            return value
        finally:
            if timings is not None:
                timings[name] = time.perf_counter() - started


class NewsDiffusionPipeline:
    """The deployed system of Figure 1, module by module."""

    def __init__(self, config: Optional[PipelineConfig] = None) -> None:
        self.config = config or PipelineConfig()

    def retry_policy(self) -> RetryPolicy:
        """The per-stage :class:`RetryPolicy` implied by the config."""
        return RetryPolicy(
            max_attempts=self.config.retry_attempts,
            base_delay_s=self.config.retry_base_delay_s,
            max_delay_s=self.config.retry_max_delay_s,
            timeout_s=self.config.stage_timeout_s,
            seed=self.config.seed,
        )

    # -- corpora ---------------------------------------------------------------

    def _map_docs(self, func, docs, span_name: str) -> List:
        """Fan a per-document function out over ``config.workers`` workers.

        Delegates to :func:`repro.parallel.parallel_map` with stable
        chunking, so results (and therefore every downstream stage) are
        identical whatever the worker count; ``workers=0`` defers to the
        ``REPRO_WORKERS`` environment variable.
        """
        return parallel_map(
            func,
            docs,
            workers=self.config.workers or None,
            allow_process=False,
            span_name=span_name,
        )

    def preprocess_news_tm(self, world: World) -> List[List[str]]:
        """NewsTM corpus: article texts through the topic-modeling pipeline."""
        return self._map_docs(
            news_tm_tokens,
            list(world.news.find()),
            "pipeline.parallel.news_tm",
        )

    def preprocess_news_ed(self, world: World) -> List[TimestampedDocument]:
        """NewsED corpus for MABED (minimal preprocessing + timestamps)."""
        return self._map_docs(
            news_ed_document,
            list(world.news.find()),
            "pipeline.parallel.news_ed",
        )

    def preprocess_twitter_ed(self, world: World) -> List[TimestampedDocument]:
        """TwitterED corpus for MABED."""
        return self._map_docs(
            twitter_ed_document,
            list(world.tweets.find()),
            "pipeline.parallel.twitter_ed",
        )

    def tweet_records(self, world: World) -> List[TweetRecord]:
        """TwitterED tweets with the metadata the feature module needs."""
        return self._map_docs(
            tweet_record_of,
            list(world.tweets.find()),
            "pipeline.parallel.tweet_records",
        )

    # -- stages --------------------------------------------------------------------

    def extract_news_topics(self, news_tm: Sequence[Sequence[str]]) -> NMFResult:
        """§4.3: TFIDF_N + NMF over the NewsTM corpus."""
        return extract_topics(
            news_tm,
            n_topics=self.config.n_topics,
            top_terms=self.config.topic_top_terms,
            max_iter=self.config.nmf_max_iter,
            seed=self.config.seed,
            min_df=NEWS_TM_MIN_DF,
            max_df_ratio=NEWS_TM_MAX_DF_RATIO,
        )

    def detect_news_events(
        self, news_ed: Sequence[TimestampedDocument]
    ) -> List[Event]:
        """§4.4 / §5.3: MABED with 60-minute slices over news."""
        return news_detector(self.config).detect(
            news_ed, self.config.n_news_events
        )

    def detect_twitter_events(
        self, twitter_ed: Sequence[TimestampedDocument]
    ) -> List[Event]:
        """§4.4 / §5.4: MABED with 30-minute slices over tweets."""
        return twitter_detector(self.config).detect(
            twitter_ed, self.config.n_twitter_events
        )

    def train_embeddings(
        self,
        news_ed: Sequence[TimestampedDocument],
        twitter_ed: Sequence[TimestampedDocument],
        news_tm: Sequence[Sequence[str]] = (),
    ) -> PretrainedEmbeddings:
        """The GoogleNews stand-in, trained on the background corpus (§4.9).

        The lemmatized NewsTM corpus is included so topic keywords (lemmas
        and merged entity concepts) are in-vocabulary alongside the raw
        event-detection tokens — GoogleNews covers both surface and base
        forms, and the stand-in must too or topic↔event similarities
        collapse.
        """
        corpus = (
            [list(d.tokens) for d in news_ed]
            + [list(d.tokens) for d in twitter_ed]
            + [list(tokens) for tokens in news_tm]
        )
        vocabulary = Vocabulary.from_documents(
            corpus, min_count=BACKGROUND_MIN_COUNT
        )
        dtm = DocumentTermMatrix.from_documents_with_vocabulary(
            corpus, vocabulary, weighting="tfidf"
        )
        return background_embeddings(self.config, dtm)

    def build_predictor(self) -> AudienceInterestPredictor:
        """The §5.6 predictor configured from this pipeline's config."""
        return AudienceInterestPredictor(
            max_epochs=self.config.max_epochs,
            batch_size=self.config.batch_size,
            validation_fraction=self.config.validation_fraction,
            early_stopping_patience=self.config.early_stopping_patience,
            seed=self.config.seed,
            dtype=self.config.nn_dtype,
        )

    # -- orchestration ----------------------------------------------------------------

    def _checkpoint_store(
        self,
        world: World,
        checkpoint_dir: Optional[Union[str, CheckpointStore]],
    ) -> Optional[CheckpointStore]:
        if checkpoint_dir is None:
            return None
        if isinstance(checkpoint_dir, CheckpointStore):
            return checkpoint_dir
        return CheckpointStore(
            checkpoint_dir, config=self.config, world_key=world_key(world)
        )

    def run(
        self,
        world: World,
        *,
        checkpoint_dir: Optional[Union[str, CheckpointStore]] = None,
        resume_from: Optional[Union[str, CheckpointStore]] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> PipelineResult:
        """Execute stages (1)–(5) of the architecture over *world*.

        Every stage runs inside an ``repro.obs`` span named
        ``pipeline.<stage>`` (under a ``pipeline.run`` root) and under
        the config's :class:`RetryPolicy`; ``timings_seconds`` stays
        populated either way for backwards compatibility.

        *checkpoint_dir* persists every stage output to a
        :class:`CheckpointStore` as the run progresses; *resume_from*
        additionally loads completed stages from the directory instead
        of recomputing them (stale checkpoints — different config or
        world — are invalidated automatically).  Passing both is only
        allowed when they name the same store.
        """
        if (
            checkpoint_dir is not None
            and resume_from is not None
            and checkpoint_dir != resume_from
        ):
            raise ValueError(
                "checkpoint_dir and resume_from must agree when both are given"
            )
        store = self._checkpoint_store(world, resume_from or checkpoint_dir)
        resume = resume_from is not None
        policy = retry_policy or self.retry_policy()
        with obs.span("pipeline.run") as run_span:
            run_span.annotate(resumed=resume)
            result = self._run_stages(
                world, run_span, store=store, resume=resume, policy=policy
            )
            run_span.annotate(
                n_topics=len(result.topics),
                n_news_events=len(result.news_events),
                n_twitter_events=len(result.twitter_events),
                n_event_tweets=len(result.event_tweets),
            )
            return result

    def _run_stages(
        self,
        world: World,
        run_span,
        store: Optional[CheckpointStore] = None,
        resume: bool = False,
        policy: Optional[RetryPolicy] = None,
    ) -> PipelineResult:
        timings: Dict[str, float] = {}

        def staged(stage: str, func, *args):
            """One resilient stage; annotates progress on the run span.

            Progress counts are annotated as soon as each stage
            completes, so a snapshot taken after a *failed* run still
            carries every count the run got far enough to produce.
            """
            value = resilient_stage(
                stage,
                lambda: func(*args),
                policy=policy,
                store=store,
                resume=resume,
                timings=timings,
            )
            if stage == "topic_modeling":
                run_span.annotate(n_topics=len(value.topics))
            elif stage == "news_event_detection":
                run_span.annotate(n_news_events=len(value))
            elif stage == "twitter_event_detection":
                run_span.annotate(n_twitter_events=len(value))
            elif stage == "feature_creation":
                run_span.annotate(n_event_tweets=len(value))
            return value

        news_tm = staged("preprocess_news_tm", self.preprocess_news_tm, world)
        news_ed = staged("preprocess_news_ed", self.preprocess_news_ed, world)
        twitter_ed = staged(
            "preprocess_twitter_ed", self.preprocess_twitter_ed, world
        )

        nmf = staged("topic_modeling", self.extract_news_topics, news_tm)
        news_events = staged("news_event_detection", self.detect_news_events, news_ed)
        twitter_events = staged(
            "twitter_event_detection", self.detect_twitter_events, twitter_ed
        )
        embeddings = staged(
            "embeddings", self.train_embeddings, news_ed, twitter_ed, news_tm
        )

        trending = staged(
            "trending_news",
            trending_module(self.config, embeddings).extract,
            nmf.topics,
            news_events,
        )
        correlation = staged(
            "correlation",
            correlation_module(self.config, embeddings).correlate,
            trending,
            twitter_events,
        )

        tweet_records = staged("tweet_records", self.tweet_records, world)
        records = staged(
            "feature_creation",
            feature_module(self.config).extract,
            correlation.pairs,
            tweet_records,
        )

        datasets: Dict[str, Dataset] = {}
        if records:
            datasets = staged(
                "dataset_building",
                build_all_datasets,
                records,
                embeddings,
                VARIANT_NAMES,
                self.config.workers or None,
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

    def run_with_prediction(
        self,
        world: World,
        targets: Sequence[str] = ("likes", "retweets"),
        variants: Sequence[str] = ("A1", "A2"),
        networks: Sequence[str] = ("MLP 1", "CNN 1"),
    ) -> Dict[str, Dict[str, Dict[str, TrainingOutcome]]]:
        """Pipeline + prediction grids; returns {target: grid}."""
        result = self.run(world)
        if not result.datasets:
            return {}
        predictor = self.build_predictor()
        selected = {
            name: ds for name, ds in result.datasets.items() if name in variants
        }
        grids: Dict[str, Dict[str, Dict[str, TrainingOutcome]]] = {}
        for target in targets:
            with obs.span(f"pipeline.prediction.{target}"):
                grids[target] = predictor.run_grid(
                    selected, target=target, networks=networks
                )
        return grids
