"""Seeded inputs: the world's records, the request pool, arrival schedules.

Everything here is a pure function of ``(seed, scale)`` so the same seed
gives the same inputs.  World synthesis is the generator's cost, not the
program's: it is built once per ``(seed, scale)`` and cached as a pickle
under ``.bench_cache/`` in the checkout, so repeated runs skip it.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.datagen import WorldConfig, build_world
from repro.text import preprocess_for_event_detection

#: Full-scale corpus: about 10k articles and 21k tweets over 28 days.
FULL_ARTICLES = 10_000
FULL_TWEETS = 21_000
FULL_USERS = 900
DURATION_DAYS = 28

CACHE_VERSION = 2


@dataclass
class Inputs:
    """One seeded world, as the program receives it."""

    seed: int
    scale: float
    config: WorldConfig
    news: List[Dict[str, Any]]
    tweets: List[Dict[str, Any]]
    #: Distinct real tweets as ``/predict`` bodies, in ``created_at`` order.
    pool: List[Dict[str, Any]]
    #: Request weight of each pool entry: its engagement in the world.
    weights: np.ndarray

    @property
    def start(self) -> datetime:
        return self.config.start

    @property
    def end(self) -> datetime:
        return self.config.end


def world_config(seed: int, scale: float) -> WorldConfig:
    return WorldConfig(
        n_articles=max(100, int(FULL_ARTICLES * scale)),
        n_tweets=max(200, int(FULL_TWEETS * scale)),
        n_users=max(40, int(FULL_USERS * scale)),
        duration_days=DURATION_DAYS,
        seed=seed,
    )


def _records(collection) -> List[Dict[str, Any]]:
    """A collection's documents in ``created_at`` order, ``_id`` stripped."""
    docs = sorted(collection.find(), key=lambda d: (d["created_at"], d["_id"]))
    return [{k: v for k, v in doc.items() if k != "_id"} for doc in docs]


def _request_pool(tweets: List[Dict[str, Any]]) -> Tuple[List[Dict[str, Any]], np.ndarray]:
    """Distinct tweets as predict bodies, each weighted by its engagement.

    A tweet's weight is the likes plus retweets the generator gave it,
    plus one, summed over tweets with the same tokens: every engagement
    is one more reader who might ask for the prediction, and the plus
    one keeps a tweet nobody engaged with requestable.
    """
    index: Dict[Tuple[str, ...], int] = {}
    pool: List[Dict[str, Any]] = []
    weights: List[float] = []
    for tweet in tweets:
        tokens = preprocess_for_event_detection(tweet["text"])
        if not tokens:
            continue
        engagement = int(tweet["likes"]) + int(tweet["retweets"]) + 1
        key = tuple(tokens)
        if key in index:
            weights[index[key]] += engagement
            continue
        index[key] = len(pool)
        weights.append(float(engagement))
        pool.append(
            {
                "tokens": tokens,
                "followers": int(tweet["followers"]),
                "created_at": tweet["created_at"].isoformat(),
            }
        )
    return pool, np.asarray(weights)


def _generate(seed: int, scale: float) -> Inputs:
    config = world_config(seed, scale)
    world = build_world(config)
    news = _records(world.news)
    tweets = _records(world.tweets)
    pool, weights = _request_pool(tweets)
    return Inputs(seed, scale, config, news, tweets, pool, weights)


def load_inputs(seed: int, scale: float, cache_dir: str) -> Inputs:
    """The seeded inputs, from the cache under *cache_dir* when built before.

    Only pickles this benchmark wrote are ever read back.
    """
    path = os.path.join(cache_dir, f"world-v{CACHE_VERSION}-s{seed}-x{scale:g}.pkl")
    if os.path.exists(path):
        with open(path, "rb") as handle:
            return pickle.load(handle)
    inputs = _generate(seed, scale)
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "wb") as handle:
        pickle.dump(inputs, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    return inputs


def split_at(records: List[Dict[str, Any]], cutoff: datetime) -> int:
    """Index of the first record created after *cutoff*."""
    lo, hi = 0, len(records)
    while lo < hi:
        mid = (lo + hi) // 2
        if records[mid]["created_at"] <= cutoff:
            lo = mid + 1
        else:
            hi = mid
    return lo


def window(
    records: List[Dict[str, Any]], after: datetime, until: datetime
) -> List[Dict[str, Any]]:
    """Records with ``after < created_at <= until``."""
    return records[split_at(records, after):split_at(records, until)]


def planted_config(config: WorldConfig, until: datetime) -> WorldConfig:
    """*config* keeping only the bursts that had started by *until*.

    Bursts planted after the data the pipeline has seen cannot be
    recovered, so they are left out of the burst-recovery score.
    """
    day = (until - config.start).total_seconds() / 86400.0
    topics = [
        replace(topic, bursts=tuple(b for b in topic.bursts if b.start_day < day))
        for topic in config.topics
    ]
    return replace(config, topics=topics)


# -- open-loop schedules -----------------------------------------------------


def weighted_indices(weights: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """*size* pool indices drawn in proportion to *weights*."""
    return rng.choice(len(weights), size=size, p=weights / weights.sum())


def arrivals(rate: float, duration_s: float) -> np.ndarray:
    """Evenly spaced arrival offsets (seconds) at *rate* per second.

    Fixed spacing rather than Poisson: with two connections, a Poisson
    burst queues inside the load generator, so its tail would measure
    the generator rather than the server.
    """
    times = np.arange(int(np.ceil(rate * duration_s))) / rate
    return times[times < duration_s]


def schedule(
    seed: int, label: str, rate: float, duration_s: float, weights: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(due offsets, seeded pool indices)`` for one open-loop phase."""
    tag = sum(ord(c) * (i + 1) for i, c in enumerate(label))
    rng = np.random.default_rng([seed, tag, int(rate * 1000)])
    due = arrivals(rate, duration_s)
    return due, weighted_indices(weights, len(due), rng)


def two_hour_steps(start: datetime, end: datetime) -> List[Tuple[datetime, datetime]]:
    """Consecutive two-hour windows of world time from *start* to *end*."""
    steps = []
    t = start
    while t < end:
        nxt = min(t + timedelta(hours=2), end)
        steps.append((t, nxt))
        t = nxt
    return steps
