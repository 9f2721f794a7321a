"""Burst-recovery scoring: MABED output vs the world's planted bursts.

The synthetic world plants its ground truth — every topic's bursts are
known intervals with known vocabularies — so the event detector can be
scored like a retrieval system:

* a detected event *recovers* a planted burst when their time intervals
  overlap and the event's vocabulary hits the topic's keywords;
* recall  = recovered bursts / planted bursts,
* precision = detected events that recover some burst / all detected.

This is the evaluation the paper could not run (its crawl has no ground
truth); the reproduction uses it to validate the MABED implementation
beyond eyeballing Tables 4–5.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import List, Sequence, Tuple

from ..datagen.world import TopicSpec, WorldConfig
from ..events import Event


@dataclass(frozen=True)
class PlantedBurst:
    """One ground-truth burst: its topic, interval, and vocabulary."""

    topic: str
    start: datetime
    end: datetime
    keywords: Tuple[str, ...]

    def overlaps(self, event: Event) -> bool:
        return self.start <= event.end and event.start <= self.end


def planted_bursts(
    config: WorldConfig, medium: str = "twitter"
) -> List[PlantedBurst]:
    """All ground-truth bursts of the world for one medium."""
    if medium == "twitter":
        topics: Sequence[TopicSpec] = config.twitter_topics()
    elif medium == "news":
        topics = config.news_topics()
    else:
        raise ValueError("medium must be 'twitter' or 'news'")
    bursts: List[PlantedBurst] = []
    for topic in topics:
        for burst in topic.bursts:
            bursts.append(
                PlantedBurst(
                    topic=topic.name,
                    start=config.start + timedelta(days=burst.start_day),
                    end=config.start
                    + timedelta(days=burst.start_day + burst.duration_days),
                    keywords=tuple(topic.keywords),
                )
            )
    return bursts


def event_recovers_burst(
    event: Event,
    burst: PlantedBurst,
    min_keyword_hits: int = 2,
) -> bool:
    """Does *event* recover *burst*? (time overlap + vocabulary hits)."""
    if not burst.overlaps(event):
        return False
    vocabulary = set(event.vocabulary)
    hits = sum(1 for keyword in burst.keywords if keyword in vocabulary)
    return hits >= min_keyword_hits


@dataclass
class RecoveryReport:
    """Precision/recall of detected events against planted bursts."""

    recovered: List[PlantedBurst]
    missed: List[PlantedBurst]
    matched_events: int
    spurious_events: int

    @property
    def recall(self) -> float:
        """Fraction of planted bursts recovered by some detected event."""
        total = len(self.recovered) + len(self.missed)
        return len(self.recovered) / total if total else 0.0

    @property
    def precision(self) -> float:
        """Fraction of detected events that match a planted burst."""
        total = self.matched_events + self.spurious_events
        return self.matched_events / total if total else 0.0

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def summary(self) -> str:
        return (
            f"bursts recovered {len(self.recovered)}/"
            f"{len(self.recovered) + len(self.missed)} (recall {self.recall:.2f}); "
            f"events matching {self.matched_events}/"
            f"{self.matched_events + self.spurious_events} "
            f"(precision {self.precision:.2f}); F1 {self.f1:.2f}"
        )


def score_burst_recovery(
    events: Sequence[Event],
    config: WorldConfig,
    medium: str = "twitter",
    min_keyword_hits: int = 2,
) -> RecoveryReport:
    """Score a detector's events against the world's planted bursts."""
    bursts = planted_bursts(config, medium)
    recovered: List[PlantedBurst] = []
    missed: List[PlantedBurst] = []
    for burst in bursts:
        if any(event_recovers_burst(e, burst, min_keyword_hits) for e in events):
            recovered.append(burst)
        else:
            missed.append(burst)
    matched_events = sum(
        1
        for e in events
        if any(event_recovers_burst(e, b, min_keyword_hits) for b in bursts)
    )
    return RecoveryReport(
        recovered=recovered,
        missed=missed,
        matched_events=matched_events,
        spurious_events=len(events) - matched_events,
    )
