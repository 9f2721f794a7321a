"""Unit tests for the checkpoint store and its stage codecs.

The codecs' round trips must be **bitwise exact** — resume correctness
(asserted end-to-end in ``tests/core/test_pipeline_resume.py``) hangs on
it — so every assertion here uses strict equality, never ``approx``.
"""

from datetime import datetime

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.correlation import CorrelatedPair, CorrelationResult
from repro.core.features import TweetRecord
from repro.core.trending import TrendingNewsTopic
from repro.datasets import Dataset, EventTweet
from repro.embeddings import PretrainedEmbeddings
from repro.events import Event, TimestampedDocument
from repro.resilience.atomic import config_fingerprint
from repro.resilience.checkpoint import CheckpointError, CheckpointStore
from repro.resilience.codecs import CodecError, decode_stage, encode_stage
from repro.topics import NMFResult, Topic


def _event(word="fire", magnitude=123.4567890123):
    return Event(
        main_word=word,
        related_words=[("smoke", 0.912345), ("alarm", 0.5)],
        start=datetime(2021, 3, 1, 12, 30),
        end=datetime(2021, 3, 2, 9, 0),
        magnitude=magnitude,
        slice_interval=(3, 7),
        support=42,
    )


def _topic(index=0):
    return Topic(index=index, terms=[("economy", 0.83), ("market", 0.41)])


def _trending(word="fire"):
    return TrendingNewsTopic(
        topic=_topic(), event=_event(word), similarity=0.7712345
    )


@pytest.fixture
def store(tmp_path):
    return CheckpointStore(str(tmp_path / "run"), config=PipelineConfig())


class TestStageRoundTrips:
    """save → load through a real store directory, stage by stage."""

    def test_token_docs(self, store):
        docs = [["economy", "market"], [], ["fire"]]
        store.save("preprocess_news_tm", docs)
        assert store.load("preprocess_news_tm") == docs

    def test_timestamped_docs(self, store):
        docs = [
            TimestampedDocument(
                tokens=["fire", "smoke"],
                created_at=datetime(2021, 3, 1, 12, 30, 59),
                doc_id=17,
            )
        ]
        store.save("preprocess_news_ed", docs)
        assert store.load("preprocess_news_ed") == docs

    def test_tweet_records(self, store):
        records = [
            TweetRecord(
                tokens=["fire"],
                created_at=datetime(2021, 3, 1, 13, 0),
                author="user1",
                followers=120,
                likes=4,
                retweets=1,
            )
        ]
        store.save("tweet_records", records)
        assert store.load("tweet_records") == records

    def test_nmf_bitwise(self, store):
        rng = np.random.default_rng(0)
        original = NMFResult(
            W=rng.random((5, 2)),
            H=rng.random((2, 7)),
            objective_history=[3.14159265358979, 1.5],
            topics=[_topic(0), _topic(1)],
        )
        store.save("topic_modeling", original)
        loaded = store.load("topic_modeling")
        assert np.array_equal(loaded.W, original.W)
        assert np.array_equal(loaded.H, original.H)
        assert loaded.W.dtype == original.W.dtype
        assert loaded.objective_history == original.objective_history
        assert loaded.topics == original.topics

    def test_events(self, store):
        events = [_event("fire"), _event("quake", magnitude=9.000000001)]
        store.save("news_event_detection", events)
        assert store.load("news_event_detection") == events

    def test_embeddings_bitwise(self, store):
        rng = np.random.default_rng(1)
        vectors = {w: rng.random(8) for w in ("fire", "smoke", "alarm")}
        original = PretrainedEmbeddings(vectors, 8)
        store.save("embeddings", original)
        loaded = store.load("embeddings")
        assert loaded.dim == 8
        assert loaded.words() == original.words()
        for word in original.words():
            assert np.array_equal(loaded[word], original[word])

    def test_empty_embeddings(self, store):
        store.save("embeddings", PretrainedEmbeddings({}, 8))
        loaded = store.load("embeddings")
        assert loaded.dim == 8
        assert loaded.words() == []

    def test_trending(self, store):
        items = [_trending("fire"), _trending("quake")]
        store.save("trending_news", items)
        assert store.load("trending_news") == items

    def test_correlation_preserves_identity_sharing(self, store):
        """pairs_for_event matches by ``is``; decode must rebuild sharing."""
        trending = _trending("fire")
        event_a, event_b = _event("blaze"), _event("quake")
        original = CorrelationResult(
            pairs=[
                CorrelatedPair(
                    trending=trending, twitter_event=event_a, similarity=0.9
                ),
                CorrelatedPair(
                    trending=trending, twitter_event=event_b, similarity=0.8
                ),
            ],
            unrelated_twitter_events=[_event("noise")],
            matched_trending=[trending],
            unmatched_trending=[_trending("cold")],
        )
        store.save("correlation", original)
        loaded = store.load("correlation")
        assert loaded.pairs == original.pairs
        assert loaded.unrelated_twitter_events == original.unrelated_twitter_events
        assert loaded.matched_trending == original.matched_trending
        assert loaded.unmatched_trending == original.unmatched_trending
        # The two pairs must share ONE decoded trending object, and the
        # matched list must reference it — not an equal copy.
        assert loaded.pairs[0].trending is loaded.pairs[1].trending
        assert loaded.matched_trending[0] is loaded.pairs[0].trending
        assert loaded.pairs_for_event(loaded.pairs[0].twitter_event) == [
            loaded.pairs[0]
        ]

    def test_event_tweets(self, store):
        records = [
            EventTweet(
                tokens=["fire", "downtown"],
                event_vocabulary={"fire", "smoke"},
                magnitudes={"fire": 12.5},
                author="user1",
                followers=120,
                likes=4,
                retweets=1,
                created_at=datetime(2021, 3, 1, 14, 0),
                event_id=3,
            )
        ]
        store.save("feature_creation", records)
        assert store.load("feature_creation") == records

    def test_datasets_bitwise(self, store):
        rng = np.random.default_rng(2)
        datasets = {
            name: Dataset(
                name=name,
                X=rng.random((6, 4)),
                y_likes=rng.integers(0, 3, 6),
                y_retweets=rng.integers(0, 3, 6),
                feature_names=[f"f{i}" for i in range(4)],
            )
            for name in ("A1", "A2")
        }
        store.save("dataset_building", datasets)
        loaded = store.load("dataset_building")
        assert list(loaded) == ["A1", "A2"]
        for name, ds in datasets.items():
            assert np.array_equal(loaded[name].X, ds.X)
            assert loaded[name].X.dtype == ds.X.dtype
            assert np.array_equal(loaded[name].y_likes, ds.y_likes)
            assert np.array_equal(loaded[name].y_retweets, ds.y_retweets)
            assert loaded[name].feature_names == ds.feature_names

    def test_unknown_stage_fails_loudly(self):
        with pytest.raises(CodecError, match="no codec"):
            encode_stage("mystery_stage", [])
        with pytest.raises(CodecError, match="no codec"):
            decode_stage("mystery_stage", {}, {})


class TestFingerprint:
    def test_stable(self):
        assert config_fingerprint(PipelineConfig()) == config_fingerprint(
            PipelineConfig()
        )

    def test_result_affecting_field_changes_it(self):
        assert config_fingerprint(PipelineConfig()) != config_fingerprint(
            PipelineConfig(n_topics=5)
        )

    def test_result_neutral_fields_do_not(self):
        baseline = config_fingerprint(PipelineConfig())
        assert baseline == config_fingerprint(PipelineConfig(workers=8))
        assert baseline == config_fingerprint(
            PipelineConfig(
                retry_attempts=9,
                retry_base_delay_s=1.0,
                retry_max_delay_s=9.0,
                stage_timeout_s=60.0,
            )
        )

    def test_world_key_participates(self):
        config = PipelineConfig()
        assert config_fingerprint(config, "news=10") != config_fingerprint(
            config, "news=11"
        )

    def test_rejects_non_dataclass(self):
        with pytest.raises(TypeError):
            config_fingerprint(object())


class TestStoreLifecycle:
    def test_missing_stage(self, store):
        assert not store.has("topic_modeling")
        with pytest.raises(CheckpointError, match="no checkpoint"):
            store.load("topic_modeling")

    def test_completed_tracks_order(self, store):
        store.save("preprocess_news_tm", [["a"]])
        store.save("topic_modeling", NMFResult(
            W=np.zeros((1, 1)), H=np.zeros((1, 1)),
            objective_history=[], topics=[],
        ))
        assert store.completed() == ["preprocess_news_tm", "topic_modeling"]

    def test_reopen_same_config_keeps_stages(self, tmp_path):
        root = str(tmp_path / "run")
        config = PipelineConfig()
        CheckpointStore(root, config=config).save(
            "preprocess_news_tm", [["a"]]
        )
        reopened = CheckpointStore(root, config=config)
        assert reopened.completed() == ["preprocess_news_tm"]
        assert reopened.load("preprocess_news_tm") == [["a"]]

    def test_reopen_changed_config_invalidates(self, tmp_path):
        root = str(tmp_path / "run")
        CheckpointStore(root, config=PipelineConfig()).save(
            "preprocess_news_tm", [["a"]]
        )
        reopened = CheckpointStore(root, config=PipelineConfig(n_topics=5))
        assert reopened.completed() == []
        assert not reopened.has("preprocess_news_tm")

    def test_reopen_changed_world_key_invalidates(self, tmp_path):
        root = str(tmp_path / "run")
        config = PipelineConfig()
        CheckpointStore(root, config=config, world_key="news=10").save(
            "preprocess_news_tm", [["a"]]
        )
        reopened = CheckpointStore(root, config=config, world_key="news=99")
        assert reopened.completed() == []

    def test_result_neutral_config_change_keeps_stages(self, tmp_path):
        root = str(tmp_path / "run")
        CheckpointStore(root, config=PipelineConfig()).save(
            "preprocess_news_tm", [["a"]]
        )
        reopened = CheckpointStore(root, config=PipelineConfig(workers=4))
        assert reopened.completed() == ["preprocess_news_tm"]

    def test_corrupt_manifest_starts_fresh(self, tmp_path):
        root = str(tmp_path / "run")
        store = CheckpointStore(root, config=PipelineConfig())
        store.save("preprocess_news_tm", [["a"]])
        with open(store.manifest_path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        reopened = CheckpointStore(root, config=PipelineConfig())
        assert reopened.completed() == []

    def test_missing_stage_file_reports_not_has(self, tmp_path):
        import os

        root = str(tmp_path / "run")
        store = CheckpointStore(root, config=PipelineConfig())
        store.save("preprocess_news_tm", [["a"]])
        os.unlink(os.path.join(root, "stages", "preprocess_news_tm.json"))
        assert not store.has("preprocess_news_tm")
        assert store.completed() == []

    def test_resave_overwrites(self, store):
        store.save("preprocess_news_tm", [["a"]])
        store.save("preprocess_news_tm", [["b"], ["c"]])
        assert store.load("preprocess_news_tm") == [["b"], ["c"]]
        assert store.completed() == ["preprocess_news_tm"]

    def test_wrong_stage_payload_rejected(self, tmp_path):
        import os
        import shutil

        root = str(tmp_path / "run")
        store = CheckpointStore(root, config=PipelineConfig())
        store.save("preprocess_news_tm", [["a"]])
        store.save("preprocess_news_ed", [])
        stages = os.path.join(root, "stages")
        shutil.copyfile(
            os.path.join(stages, "preprocess_news_tm.json"),
            os.path.join(stages, "preprocess_news_ed.json"),
        )
        with pytest.raises(CheckpointError, match="belongs to stage"):
            store.load("preprocess_news_ed")

    def test_invalidate_clears_everything(self, store):
        store.save("preprocess_news_tm", [["a"]])
        store.invalidate()
        assert store.completed() == []
        assert not store.has("preprocess_news_tm")
