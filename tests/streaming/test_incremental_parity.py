"""Batch-parity differential harness for the streaming pipeline.

The contract under test (see ``docs/streaming.md``):

* **exact mode** (cold NMF + LSA embeddings, the defaults): an
  :class:`~repro.streaming.IncrementalPipeline` fed the same documents
  in K micro-batches produces *bitwise identical* results to one batch
  :meth:`NewsDiffusionPipeline.run` — event sets, NMF factors, topic
  keywords, embedding vectors, correlation pairs, and encoded dataset
  tensors — for every K and every seed;
* **warm mode** (warm-started NMF): MABED events stay bitwise; the NMF
  objective converges to within a pinned tolerance of the batch optimum
  in strictly fewer iterations;
* a record arriving behind the ingest watermark is dropped, and the
  stream then equals the batch oracle over the *accepted* documents.
"""

import numpy as np
import pytest

from repro.core import PipelineConfig
from repro.core.pipeline import NewsDiffusionPipeline
from repro.datagen import World, WorldConfig, build_world
from repro.store import Database
from repro.streaming import IncrementalPipeline, StreamingConfig

SEEDS = [3, 7, 11]
CHUNK_COUNTS = [1, 4, 16]

#: Pinned fast-mode tolerance: the warm-started factorization may end at
#: most this much *worse* (relative) than the batch objective.  Measured
#: ~3.5% worst-case over the harness worlds; on some seeds the warm start
#: lands in a strictly better optimum, which is always acceptable.
WARM_OBJECTIVE_RTOL = 0.10


def _config(seed: int) -> PipelineConfig:
    return PipelineConfig(
        n_topics=6,
        n_news_events=8,
        n_twitter_events=12,
        nmf_max_iter=60,
        embedding_dim=32,
        min_term_support=4,
        min_event_records=3,
        seed=seed,
    )


def _world(seed: int) -> World:
    return build_world(
        WorldConfig(
            n_articles=110,
            n_tweets=240,
            n_users=35,
            duration_days=21,
            seed=seed,
        )
    )


def _chunks(docs, k):
    n = len(docs)
    return [docs[i * n // k : (i + 1) * n // k] for i in range(k)]


def _stream(config, news, tweets, k, streaming=None, name="stream"):
    """Feed the corpus in *k* micro-batches; return the last result."""
    pipeline = IncrementalPipeline(
        config, streaming or StreamingConfig(), database=Database(name)
    )
    result = None
    for chunk_news, chunk_tweets in zip(_chunks(news, k), _chunks(tweets, k)):
        if chunk_news:
            pipeline.append_news(chunk_news)
        if chunk_tweets:
            pipeline.append_tweets(chunk_tweets)
        result = pipeline.cycle()
    return result


def _event_key(event):
    return (
        event.main_word,
        tuple(event.slice_interval),
        event.start,
        event.end,
        event.magnitude,
        event.support,
        tuple(event.related_words),
    )


def assert_bitwise_equal(batch, streamed):
    """Every product of the two runs must match exactly."""
    assert [_event_key(e) for e in batch.news_events] == [
        _event_key(e) for e in streamed.news_events
    ]
    assert [_event_key(e) for e in batch.twitter_events] == [
        _event_key(e) for e in streamed.twitter_events
    ]
    assert np.array_equal(batch.nmf.W, streamed.nmf.W)
    assert np.array_equal(batch.nmf.H, streamed.nmf.H)
    assert batch.nmf.objective_history == streamed.nmf.objective_history
    assert [t.keywords for t in batch.topics] == [
        t.keywords for t in streamed.topics
    ]
    assert batch.embeddings.words() == streamed.embeddings.words()
    for word in batch.embeddings.words():
        assert np.array_equal(batch.embeddings[word], streamed.embeddings[word])
    assert len(batch.trending) == len(streamed.trending)
    assert batch.correlation.n_pairs == streamed.correlation.n_pairs
    assert len(batch.correlation.unrelated_twitter_events) == len(
        streamed.correlation.unrelated_twitter_events
    )
    assert len(batch.event_tweets) == len(streamed.event_tweets)
    assert sorted(batch.datasets) == sorted(streamed.datasets)
    for name, dataset in batch.datasets.items():
        other = streamed.datasets[name]
        assert np.array_equal(dataset.X, other.X), name
        assert np.array_equal(dataset.y_likes, other.y_likes), name
        assert np.array_equal(dataset.y_retweets, other.y_retweets), name


@pytest.fixture(scope="module", params=SEEDS)
def corpus(request):
    """One seeded world + its batch-pipeline reference result."""
    seed = request.param
    config = _config(seed)
    world = _world(seed)
    batch = NewsDiffusionPipeline(config).run(world)
    news = sorted(world.news.find(), key=lambda d: d["_id"])
    tweets = sorted(world.tweets.find(), key=lambda d: d["_id"])
    return seed, config, news, tweets, batch


@pytest.mark.parametrize("k", CHUNK_COUNTS)
def test_exact_mode_is_bitwise_equal_to_batch(corpus, k):
    """K incremental micro-batches == one batch run, bit for bit."""
    seed, config, news, tweets, batch = corpus
    streamed = _stream(config, news, tweets, k, name=f"exact-{seed}-{k}")
    assert_bitwise_equal(batch, streamed)


def test_intermediate_cycles_match_batch_prefixes(corpus):
    """After every cycle the stream equals a batch run over the prefix."""
    seed, config, news, tweets, _batch = corpus
    k = 3
    pipeline = IncrementalPipeline(
        config, StreamingConfig(), database=Database(f"prefix-{seed}")
    )
    fed_news, fed_tweets = [], []
    for chunk_news, chunk_tweets in zip(_chunks(news, k), _chunks(tweets, k)):
        pipeline.append_news(chunk_news)
        pipeline.append_tweets(chunk_tweets)
        fed_news.extend(chunk_news)
        fed_tweets.extend(chunk_tweets)
        streamed = pipeline.cycle()

        database = Database(f"prefix-oracle-{seed}")
        for name, docs in (("news", fed_news), ("tweets", fed_tweets)):
            for doc in docs:
                clean = {k_: v for k_, v in doc.items() if k_ != "_id"}
                database[name].insert_one(clean)
        oracle_world = _world(seed)
        prefix_world = World(
            config=oracle_world.config,
            database=database,
            population=oracle_world.population,
        )
        batch_prefix = NewsDiffusionPipeline(config).run(prefix_world)
        assert_bitwise_equal(batch_prefix, streamed)


def test_late_record_is_dropped_by_watermark(corpus):
    """A record behind the watermark is refused; results exclude it."""
    seed, config, news, tweets, batch = corpus
    pipeline = IncrementalPipeline(
        config, StreamingConfig(), database=Database(f"late-{seed}")
    )
    half = len(tweets) // 2
    pipeline.append_news(news)
    ack = pipeline.append_tweets(tweets[:half])
    assert ack.dropped_late == 0
    pipeline.cycle()

    # The oldest tweet re-arrives late: it is strictly behind the
    # watermark (allowed_lateness=0) and must be dropped, not refolded.
    stale = min(tweets, key=lambda d: d["created_at"])
    assert stale["created_at"] < ack.watermark
    late_ack = pipeline.append_tweets([stale])
    assert late_ack.accepted == 0
    assert late_ack.dropped_late == 1

    pipeline.append_tweets(tweets[half:])
    streamed = pipeline.cycle()
    # The accepted set is exactly the full corpus, so the batch run is
    # the oracle: the dropped duplicate left no trace.
    assert_bitwise_equal(batch, streamed)


def test_warm_nmf_mode_converges_near_batch_objective(corpus):
    """Fast-mode NMF: pinned objective tolerance, fewer iterations."""
    seed, config, news, tweets, batch = corpus
    streamed = _stream(
        config,
        news,
        tweets,
        4,
        streaming=StreamingConfig(topic_mode="warm"),
        name=f"warm-{seed}",
    )
    # MABED events stay bitwise in every mode.
    assert [_event_key(e) for e in batch.news_events] == [
        _event_key(e) for e in streamed.news_events
    ]
    assert [_event_key(e) for e in batch.twitter_events] == [
        _event_key(e) for e in streamed.twitter_events
    ]
    batch_objective = batch.nmf.objective_history[-1]
    warm_objective = streamed.nmf.objective_history[-1]
    assert warm_objective <= batch_objective * (1.0 + WARM_OBJECTIVE_RTOL)
    # The warm start is the speed mechanism: it must converge in fewer
    # multiplicative-update iterations than the cold batch start.
    assert len(streamed.nmf.objective_history) < len(
        batch.nmf.objective_history
    )
    assert streamed.nmf.W.shape == batch.nmf.W.shape
    assert streamed.nmf.H.shape == batch.nmf.H.shape
