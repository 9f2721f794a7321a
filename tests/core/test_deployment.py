"""Integration tests for the §4.9 continuous-deployment simulator."""

from datetime import timedelta

import numpy as np
import pytest

from repro.core import DeploymentSimulator, NewsDiffusionPipeline
from repro.core.config import PipelineConfig
from repro.datagen import World, WorldConfig, build_world
from repro.store import Database
from repro.streaming import IncrementalPipeline


@pytest.fixture(scope="module")
def world():
    return build_world(
        WorldConfig(n_articles=700, n_tweets=2200, n_users=150, seed=17)
    )


@pytest.fixture(scope="module")
def config():
    return PipelineConfig(
        n_topics=10,
        n_news_events=15,
        n_twitter_events=30,
        embedding_dim=48,
        min_term_support=5,
        min_event_records=4,
        max_epochs=25,
        batch_size=128,
        nmf_max_iter=120,
        seed=17,
    )


@pytest.fixture(scope="module")
def report(world, config):
    simulator = DeploymentSimulator(
        config, refresh=timedelta(days=10), variant="A2"
    )
    return simulator.run(world, n_cycles=3, start_fraction=0.55)


def _visible_world(world, cutoff):
    """The sub-world of documents created up to *cutoff* (batch input)."""
    database = Database("visible", shard_count=world.database.shard_count)
    for name in ("news", "tweets"):
        for doc in world.database[name].find({"created_at": {"$lte": cutoff}}):
            doc.pop("_id", None)
            database[name].insert_one(doc)
    return World(
        config=world.config, database=database, population=world.population
    )


class TestDeployment:
    def test_three_cycles_recorded(self, report):
        assert len(report.cycles) == 3

    def test_visible_corpus_grows(self, report):
        articles = [c.n_articles for c in report.cycles]
        tweets = [c.n_tweets for c in report.cycles]
        assert articles == sorted(articles)
        assert tweets == sorted(tweets)
        assert articles[-1] > articles[0]

    def test_first_training_is_cold_then_warm(self, report):
        trained = [c for c in report.cycles if c.trained]
        assert trained, "no cycle produced a trainable dataset"
        assert not trained[0].warm_start
        assert all(c.warm_start for c in trained[1:])

    def test_warm_start_converges_in_fewer_epochs(self, report):
        """§4.9: checkpoints alleviate retraining from scratch."""
        cold = report.cold_epochs()
        warm = report.warm_epochs()
        if cold and warm:
            assert min(warm) <= cold[0]

    def test_accuracy_stays_reasonable(self, report):
        trained = [c for c in report.cycles if c.trained]
        for cycle in trained:
            assert cycle.validation_accuracy > 0.4

    def test_summary_renders(self, report):
        text = report.summary()
        assert "cycle" in text
        assert str(report.cycles[-1].cycle) in text

    def test_report_is_pinned(self, report):
        rows = [
            (
                c.n_articles,
                c.n_tweets,
                c.n_trending,
                c.n_pairs,
                c.n_event_tweets,
                c.trained,
                c.warm_start,
                c.n_epochs,
                c.validation_accuracy,
            )
            for c in report.cycles
        ]
        assert rows == [
            (396, 1251, 9, 7, 109, True, False, 25, 17 / 22),
            (444, 1390, 9, 7, 122, True, True, 23, 0.88),
            (482, 1543, 10, 7, 190, True, True, 15, 30 / 37),
        ]


class TestBatchParity:
    def test_incremental_cycles_match_batch_runs(self, world, config, report):
        """Every refresh equals a batch run over the visible slice.

        The simulator only ever folds deltas into an incremental
        pipeline; the batch pipeline stays the reference it must match
        bitwise at each cutoff.
        """
        incremental = IncrementalPipeline(
            config,
            database=Database(
                "parity", shard_count=world.database.shard_count
            ),
        )
        batch = NewsDiffusionPipeline(config)
        previous_cutoff = None
        for cycle in report.cycles:
            DeploymentSimulator._feed_incremental(
                incremental, world, previous_cutoff, cycle.cutoff
            )
            previous_cutoff = cycle.cutoff
            streamed = incremental.cycle()
            reference = batch.run(_visible_world(world, cycle.cutoff))
            assert (
                streamed.correlation.n_pairs == reference.correlation.n_pairs
            )
            ours = streamed.datasets["A2"]
            theirs = reference.datasets["A2"]
            assert np.array_equal(ours.X, theirs.X)
            assert np.array_equal(ours.y_likes, theirs.y_likes)
            assert np.array_equal(ours.y_retweets, theirs.y_retweets)


class TestValidation:
    def test_invalid_refresh(self):
        with pytest.raises(ValueError):
            DeploymentSimulator(refresh=timedelta(0))

    def test_invalid_cycles(self, world):
        simulator = DeploymentSimulator(
            PipelineConfig(embedding_dim=16), refresh=timedelta(days=1)
        )
        with pytest.raises(ValueError):
            simulator.run(world, n_cycles=0)
        with pytest.raises(ValueError):
            simulator.run(world, start_fraction=0.0)
