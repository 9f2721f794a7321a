"""Seed-to-seed determinism of the full pipeline.

§4.9 retrains every 2 hours from checkpoints; the reproduction's claim
that a run is *repeatable* (same world + same config seed → bitwise the
same topics, factor matrices, events, and encoded datasets) is what makes
every downstream table comparable across machines.  These tests run the
whole pipeline twice on independently generated same-seed worlds and
require exact equality — and then check that changing the seed actually
changes the stochastic stages (NMF initialization), so the determinism
is not an artifact of the stages ignoring the seed altogether.
"""

import numpy as np
import pytest

from repro import NewsDiffusionPipeline, build_world
from repro.core.config import PipelineConfig
from repro.datagen import WorldConfig

SEED = 13


def _make_world(seed=SEED):
    return build_world(
        WorldConfig(n_articles=200, n_tweets=700, n_users=60, seed=seed)
    )


def _make_config(seed=SEED):
    return PipelineConfig(
        n_topics=6,
        nmf_max_iter=120,
        n_news_events=8,
        n_twitter_events=16,
        embedding_dim=32,
        min_term_support=3,
        min_event_records=3,
        seed=seed,
    )


@pytest.fixture(scope="module")
def run_pair():
    """Two full runs from scratch: fresh world + fresh pipeline each time."""
    first = NewsDiffusionPipeline(_make_config()).run(_make_world())
    second = NewsDiffusionPipeline(_make_config()).run(_make_world())
    return first, second


class TestSameSeedIsBitwiseIdentical:
    def test_world_generation(self):
        world_a, world_b = _make_world(), _make_world()
        docs_a = list(world_a.news.find().sort("_id"))
        docs_b = list(world_b.news.find().sort("_id"))
        assert len(docs_a) == len(docs_b) == 200
        assert [d["title"] for d in docs_a] == [d["title"] for d in docs_b]
        tweets_a = list(world_a.tweets.find().sort("_id"))
        tweets_b = list(world_b.tweets.find().sort("_id"))
        assert [t["text"] for t in tweets_a] == [t["text"] for t in tweets_b]
        assert [t["likes"] for t in tweets_a] == [t["likes"] for t in tweets_b]

    def test_topics(self, run_pair):
        first, second = run_pair
        assert [t.keywords for t in first.topics] == [
            t.keywords for t in second.topics
        ]
        assert [t.terms for t in first.topics] == [t.terms for t in second.topics]

    def test_nmf_factors(self, run_pair):
        first, second = run_pair
        assert np.array_equal(first.nmf.W, second.nmf.W)
        assert np.array_equal(first.nmf.H, second.nmf.H)
        assert first.nmf.objective_history == second.nmf.objective_history

    def test_events(self, run_pair):
        first, second = run_pair

        def signature(events):
            return [
                (e.main_word, e.start, e.end, e.magnitude, e.related_words)
                for e in events
            ]

        assert signature(first.news_events) == signature(second.news_events)
        assert signature(first.twitter_events) == signature(second.twitter_events)

    def test_correlation_and_trending(self, run_pair):
        first, second = run_pair
        assert first.correlation.n_pairs == second.correlation.n_pairs
        assert len(first.trending) == len(second.trending)

    def test_datasets(self, run_pair):
        first, second = run_pair
        assert sorted(first.datasets) == sorted(second.datasets)
        assert first.datasets, "tiny world produced no datasets"
        for name, dataset in first.datasets.items():
            twin = second.datasets[name]
            assert np.array_equal(dataset.X, twin.X), name
            assert np.array_equal(dataset.y_likes, twin.y_likes), name
            assert np.array_equal(dataset.y_retweets, twin.y_retweets), name


class TestWord2VecStreams:
    """Seed-stream separation inside Word2Vec (the PR-3 sampler fix).

    ``W_in`` init draws from ``default_rng(seed)``, training from
    ``seed + 1``, and the negative-sampling noise table from a spawned
    child stream — previously the noise table reused the init stream,
    correlating negative samples with initialization.
    """

    CORPUS = [["vote", "party", "poll", "vote"], ["party", "poll", "vote"]] * 20

    def test_same_seed_is_bitwise_identical(self):
        def run():
            from repro.embeddings import Word2Vec

            model = Word2Vec(vector_size=8, min_count=1, epochs=2, seed=SEED)
            model.train(self.CORPUS)
            return model

        a, b = run(), run()
        assert np.array_equal(a.W_in, b.W_in)
        assert np.array_equal(a.W_out, b.W_out)
        assert np.array_equal(a._noise_table, b._noise_table)

    def test_noise_table_not_drawn_from_init_stream(self):
        from repro.embeddings import Word2Vec

        model = Word2Vec(vector_size=8, min_count=1, seed=SEED)
        model.build_vocab(self.CORPUS)
        freqs = np.array(
            [model.word_counts[w] for w in model.index_to_word], dtype=np.float64
        )
        probs = freqs ** 0.75
        probs /= probs.sum()
        init_stream_table = np.random.default_rng(SEED).choice(
            len(freqs), size=len(model._noise_table), p=probs
        )
        assert not np.array_equal(model._noise_table, init_stream_table)

    def test_different_seed_diverges(self):
        from repro.embeddings import Word2Vec

        a = Word2Vec(vector_size=8, min_count=1, epochs=2, seed=SEED)
        b = Word2Vec(vector_size=8, min_count=1, epochs=2, seed=SEED + 1)
        a.train(self.CORPUS)
        b.train(self.CORPUS)
        assert not np.array_equal(a.W_in, b.W_in)


class TestParallelWorkersInvariance:
    """The pipeline must be bitwise identical at any worker count."""

    def test_preprocessing_matches_serial(self):
        world = _make_world()
        serial = NewsDiffusionPipeline(_make_config()).preprocess_news_tm(world)
        config = _make_config()
        config.workers = 4
        parallel = NewsDiffusionPipeline(config).preprocess_news_tm(world)
        assert serial == parallel


class TestDifferentSeedDiverges:
    def test_nmf_initialization_depends_on_seed(self):
        world = _make_world()
        corpus = NewsDiffusionPipeline(_make_config()).preprocess_news_tm(world)
        nmf_a = NewsDiffusionPipeline(_make_config(seed=SEED)).extract_news_topics(
            corpus
        )
        nmf_b = NewsDiffusionPipeline(
            _make_config(seed=SEED + 1)
        ).extract_news_topics(corpus)
        assert nmf_a.W.shape == nmf_b.W.shape
        assert not np.array_equal(nmf_a.W, nmf_b.W)

    def test_world_generation_depends_on_seed(self):
        world_a = _make_world(seed=SEED)
        world_b = _make_world(seed=SEED + 1)
        texts_a = [d["text"] for d in world_a.tweets.find().sort("_id")]
        texts_b = [d["text"] for d in world_b.tweets.find().sort("_id")]
        assert texts_a != texts_b
