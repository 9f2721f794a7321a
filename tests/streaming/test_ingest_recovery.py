"""Crash-recovery harness for streaming ingest and checkpointing.

Each case arms one fatal fault (via :mod:`repro.resilience.faults`) at a
streaming kill point — before the ingest store write, between write and
ack, inside the state-checkpoint write, at the checkpoint pointer flip,
or deep in the store's own WAL append — then drives an
:class:`~repro.streaming.IncrementalPipeline` until the fault fires.

The recovery contract mirrors the store harness
(``tests/store/test_wal_recovery.py``): the WAL-backed store is the
source of truth, and acknowledged appends must survive.  After the
"crash" the database is reopened from its WAL directory, the pipeline is
resumed over it (same checkpoint ``state_dir``), the not-yet-persisted
suffix of the feed is replayed, and one final cycle must be **bitwise
identical** to a batch run over the full corpus — the streaming state
checkpoint is an optimization that may lag the store, never an
independent truth that can diverge from it.

The workload seed honours ``REPRO_STREAM_FAULT_SEED`` so CI can sweep
the same kill points under several pinned seeds.
"""

import os
from datetime import timedelta

import pytest

from repro import obs
from repro.core import PipelineConfig
from repro.core.pipeline import NewsDiffusionPipeline
from repro.datagen import WorldConfig, build_world
from repro.resilience import faults
from repro.store import Database
from repro.streaming import IncrementalPipeline, StreamingConfig

from .test_incremental_parity import assert_bitwise_equal

WORKLOAD_SEED = int(os.environ.get("REPRO_STREAM_FAULT_SEED", "3"))

#: (site glob, trigger threshold) — every distinct streaming kill point,
#: each hit both on its first firing and after some successful traffic.
KILL_POINTS = [
    ("streaming.ingest.append.news", 0),
    ("streaming.ingest.append.tweets", 1),
    ("streaming.ingest.ack.*", 0),
    ("streaming.ingest.ack.*", 3),
    ("streaming.checkpoint.write", 0),
    ("streaming.checkpoint.write", 2),
    ("streaming.checkpoint.flip", 0),
    ("store.wal.append.*", 10),
    ("store.wal.append.*", 40),
]

N_CHUNKS = 6


def _config() -> PipelineConfig:
    return PipelineConfig(
        n_topics=6,
        n_news_events=8,
        n_twitter_events=12,
        nmf_max_iter=60,
        embedding_dim=32,
        min_term_support=4,
        min_event_records=3,
        seed=WORKLOAD_SEED,
    )


def _chunks(docs, k):
    n = len(docs)
    return [docs[i * n // k : (i + 1) * n // k] for i in range(k)]


@pytest.fixture(scope="module")
def oracle():
    """The seeded corpus and its batch-pipeline reference result."""
    config = _config()
    world = build_world(
        WorldConfig(
            n_articles=84,
            n_tweets=180,
            n_users=30,
            duration_days=14,
            seed=WORKLOAD_SEED,
        )
    )
    batch = NewsDiffusionPipeline(config).run(world)
    news = sorted(world.news.find(), key=lambda d: d["_id"])
    tweets = sorted(world.tweets.find(), key=lambda d: d["_id"])
    return config, news, tweets, batch


def _drive_until_crash(pipeline, news, tweets, acked):
    """Feed the chunked corpus, cycling after each chunk pair.

    Returns True when the armed fault fired.  *acked* accumulates, per
    collection, only counts the session actually acknowledged — the
    lower bound on what recovery must preserve.
    """
    try:
        for chunk_news, chunk_tweets in zip(
            _chunks(news, N_CHUNKS), _chunks(tweets, N_CHUNKS)
        ):
            if chunk_news:
                acked["news"] += pipeline.append_news(chunk_news).accepted
            if chunk_tweets:
                acked["tweets"] += pipeline.append_tweets(chunk_tweets).accepted
            pipeline.cycle()
    except faults.FaultError:
        return True
    return False


@pytest.mark.parametrize("site,after", KILL_POINTS)
def test_resumed_stream_converges_to_batch(tmp_path, oracle, site, after):
    """Crash anywhere; reopen; replay the suffix; equal batch, bitwise."""
    config, news, tweets, batch = oracle
    wal_dir = str(tmp_path / "wal")
    state_dir = str(tmp_path / "state")
    plan = faults.FaultPlan(
        seed=1,
        specs=(
            faults.FaultSpec(
                sites=site, rate=1.0, kind="fatal", max_triggers=1, after=after
            ),
        ),
    )
    acked = {"news": 0, "tweets": 0}
    with faults.overridden(plan):
        database = Database("stream", wal_dir=wal_dir)
        pipeline = IncrementalPipeline(
            config, StreamingConfig(), database=database, state_dir=state_dir
        )
        try:
            crashed = _drive_until_crash(pipeline, news, tweets, acked)
        finally:
            database.close()
    assert crashed, f"fault at {site!r} (after={after}) never fired"
    assert plan.triggered(kind="fatal"), "expected a fatal fault record"

    # "Reboot": the WAL-recovered store must hold every acknowledged
    # append.  It may hold more (persisted-but-unacked writes survive).
    recovered = Database("stream", wal_dir=wal_dir)
    persisted = {name: len(recovered[name]) for name in ("news", "tweets")}
    for name in ("news", "tweets"):
        assert persisted[name] >= acked[name], (
            f"recovery lost acknowledged {name} appends "
            f"(site={site}, after={after})"
        )

    # Resume over the reopened store and the same checkpoint directory.
    # The store assigned ids 1..n in feed order, so the persisted docs
    # are exactly a prefix of the feed: replay only the suffix.
    resumed = IncrementalPipeline(
        config, StreamingConfig(), database=recovered, state_dir=state_dir
    )
    if len(news) > persisted["news"]:
        resumed.append_news(news[persisted["news"] :])
    if len(tweets) > persisted["tweets"]:
        resumed.append_tweets(tweets[persisted["tweets"] :])
    streamed = resumed.cycle()
    assert_bitwise_equal(batch, streamed)
    recovered.close()


def test_resume_recomputes_watermark_from_store(tmp_path, oracle):
    """After reopen the watermark still guards against late rewrites."""
    config, news, tweets, batch = oracle
    wal_dir = str(tmp_path / "wal")
    state_dir = str(tmp_path / "state")

    database = Database("stream", wal_dir=wal_dir)
    pipeline = IncrementalPipeline(
        config, StreamingConfig(), database=database, state_dir=state_dir
    )
    pipeline.append_news(news)
    pipeline.append_tweets(tweets)
    pipeline.cycle()
    database.close()

    recovered = Database("stream", wal_dir=wal_dir)
    resumed = IncrementalPipeline(
        config, StreamingConfig(), database=recovered, state_dir=state_dir
    )
    # The watermark was rebuilt from surviving documents: re-appending
    # the oldest tweet is late again and must be dropped again.
    stale = min(tweets, key=lambda d: d["created_at"])
    ack = resumed.append_tweets([stale])
    assert ack.accepted == 0
    assert ack.dropped_late == 1
    streamed = resumed.cycle()
    assert_bitwise_equal(batch, streamed)
    recovered.close()


def test_checkpoint_restore_skips_refold(tmp_path, oracle):
    """A valid checkpoint makes resume O(new data): nothing refolds."""
    config, news, tweets, batch = oracle
    wal_dir = str(tmp_path / "wal")
    state_dir = str(tmp_path / "state")

    database = Database("stream", wal_dir=wal_dir)
    pipeline = IncrementalPipeline(
        config, StreamingConfig(), database=database, state_dir=state_dir
    )
    half_news, half_tweets = len(news) // 2, len(tweets) // 2
    pipeline.append_news(news[:half_news])
    pipeline.append_tweets(tweets[:half_tweets])
    pipeline.cycle()
    database.close()

    recovered = Database("stream", wal_dir=wal_dir)
    resumed = IncrementalPipeline(
        config, StreamingConfig(), database=recovered, state_dir=state_dir
    )
    # The restored fold cursors already cover the persisted prefix, so
    # the only documents left to fold are the ones appended after.
    assert resumed._last_ids == {"news": half_news, "tweets": half_tweets}
    resumed.append_news(news[half_news:])
    resumed.append_tweets(tweets[half_tweets:])
    streamed = resumed.cycle()
    assert_bitwise_equal(batch, streamed)
    recovered.close()


def test_lateness_budget_survives_crash_boundary(tmp_path, oracle):
    """allowed_lateness keeps borderline records accepted across resume."""
    config, news, tweets, batch = oracle
    streaming = StreamingConfig(allowed_lateness=timedelta(days=365))
    wal_dir = str(tmp_path / "wal")
    state_dir = str(tmp_path / "state")

    database = Database("stream", wal_dir=wal_dir)
    pipeline = IncrementalPipeline(
        config, streaming, database=database, state_dir=state_dir
    )
    # Feed newest-first: with a generous lateness budget nothing drops
    # even though every record after the first arrives "late".
    pipeline.append_news(sorted(news, key=lambda d: d["created_at"], reverse=True))
    pipeline.cycle()
    database.close()

    recovered = Database("stream", wal_dir=wal_dir)
    resumed = IncrementalPipeline(
        config, streaming, database=recovered, state_dir=state_dir
    )
    ack = resumed.append_tweets(
        sorted(tweets, key=lambda d: d["created_at"], reverse=True)
    )
    assert ack.dropped_late == 0
    assert ack.accepted == len(tweets)
    resumed.cycle()
    recovered.close()


def test_config_change_makes_checkpoint_stale(tmp_path, oracle):
    """A checkpoint from another StreamingConfig is ignored, not adopted.

    Its fingerprint no longer matches, so the reopened pipeline counts
    it stale, refolds every stored document, and still equals batch.
    """
    config, news, tweets, batch = oracle
    wal_dir = str(tmp_path / "wal")
    state_dir = str(tmp_path / "state")

    database = Database("stream", wal_dir=wal_dir)
    pipeline = IncrementalPipeline(
        config, StreamingConfig(), database=database, state_dir=state_dir
    )
    half_news, half_tweets = len(news) // 2, len(tweets) // 2
    pipeline.append_news(news[:half_news])
    pipeline.append_tweets(tweets[:half_tweets])
    pipeline.cycle()
    database.close()

    recovered = Database("stream", wal_dir=wal_dir)
    previous = obs.set_enabled(True)
    obs.reset()
    try:
        resumed = IncrementalPipeline(
            config,
            StreamingConfig(allowed_lateness=timedelta(minutes=5)),
            database=recovered,
            state_dir=state_dir,
        )
        counters = obs.get_registry().snapshot()["metrics"]["counters"]
    finally:
        obs.set_enabled(previous)
        obs.reset()
    assert counters["streaming.checkpoint.stale"]["value"] == 1
    assert "streaming.checkpoint.restored" not in counters
    assert resumed.cycles_completed == 0
    assert resumed._last_ids == {"news": 0, "tweets": 0}

    resumed.append_news(news[half_news:])
    resumed.append_tweets(tweets[half_tweets:])
    streamed = resumed.cycle()
    assert_bitwise_equal(batch, streamed)
    recovered.close()
