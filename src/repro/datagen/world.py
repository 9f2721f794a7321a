"""Synthetic news+Twitter world configuration.

The paper's experiments run on 261,052 news articles and 80,569 tweets
collected live over five months (§5.1) — data we cannot re-collect
offline.  This module defines the generative world that replaces the
crawl: a set of latent topics, each with a keyword vocabulary, background
chatter rate, bursty real-world "happenings", a virality level, and flags
for whether it appears in mass media, on Twitter, or both.

The default world mirrors the paper's observed topics (Tables 3–5): Brexit
elections, US–China tariffs, the Huawei ban, Iran tensions, the Gaza
conflict, Abe's Japan, the impeachment inquiry, and the Kentucky Derby —
plus Twitter-only topics (TV shows, food, football) that reproduce the
"unrelated Twitter events" of Table 7, since Twitter "is a generalized
discussion forum".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class Burst:
    """One happening inside a topic: a time window of elevated activity."""

    start_day: float      # offset from the world's start, in days
    duration_days: float
    intensity: float      # multiplier over the topic's base rate

    def active(self, day_offset: float) -> bool:
        """True when *day_offset* falls inside the burst window."""
        return self.start_day <= day_offset < self.start_day + self.duration_days


@dataclass(frozen=True)
class TopicSpec:
    """A latent topic of the synthetic world.

    *virality* in [0, 1] drives the engagement model: tweets about highly
    viral topics attract more likes/retweets.  *in_news* / *on_twitter*
    control which medium covers the topic.
    """

    name: str
    keywords: Tuple[str, ...]
    entities: Tuple[str, ...] = ()
    base_rate: float = 1.0
    bursts: Tuple[Burst, ...] = ()
    virality: float = 0.5
    in_news: bool = True
    on_twitter: bool = True

    def activity(self, day_offset: float) -> float:
        """Instantaneous rate multiplier at *day_offset* days."""
        rate = self.base_rate
        for burst in self.bursts:
            if burst.active(day_offset):
                rate += self.base_rate * burst.intensity
        return rate


# Common news-prose vocabulary shared by every article and tweet; gives the
# NMF/TFIDF layers realistic background mass to discount.
BACKGROUND_WORDS: Tuple[str, ...] = (
    "government", "officials", "statement", "report", "sources", "country",
    "public", "plan", "decision", "meeting", "leaders", "press", "group",
    "announcement", "response", "support", "issue", "policy", "situation",
    "week", "month", "members", "national", "major", "change", "growth",
    "market", "talks", "deal", "future", "political", "economic", "media",
    "story", "update", "latest", "breaking", "analysis", "reaction",
    "comment", "crisis", "debate", "agreement", "concern", "action",
    "development", "impact", "question", "move", "call", "effort",
)

# Slang/novel tokens appearing only in tweets; these land outside the
# "pretrained" embedding store and exercise the RND_Doc2Vec path.
TWITTER_SLANG: Tuple[str, ...] = (
    "omg", "smh", "tbh", "lol", "yikes", "wow", "thread", "hot", "take",
    "mood", "stan", "vibes", "lmao", "fr", "lowkey", "ngl", "based",
)


def default_topics() -> List[TopicSpec]:
    """The default world's topics, shaped after the paper's Tables 3–7."""
    return [
        TopicSpec(
            name="brexit_election",
            keywords=("party", "election", "vote", "seat", "poll", "voter",
                      "conservative", "european", "brexit", "campaign",
                      "parliament", "minister", "leadership", "mps"),
            entities=("Theresa May", "European Union", "Boris Johnson"),
            base_rate=1.6,
            bursts=(Burst(20, 12, 6.0), Burst(55, 8, 4.0)),
            virality=0.85,
        ),
        TopicSpec(
            name="trade_tariffs",
            keywords=("tariff", "import", "billion", "chinese", "goods",
                      "impose", "consumer", "product", "percent", "trade",
                      "export", "tax", "china", "escalation"),
            entities=("United States",),
            base_rate=1.4,
            bursts=(Burst(10, 10, 5.0), Burst(70, 10, 5.0)),
            virality=0.7,
        ),
        TopicSpec(
            name="tech_business",
            keywords=("company", "business", "industry", "customer",
                      "service", "technology", "startup", "revenue",
                      "investor", "profit", "shares", "earnings"),
            base_rate=1.8,
            bursts=(Burst(30, 20, 2.0),),
            virality=0.45,
        ),
        TopicSpec(
            name="trade_war",
            keywords=("war", "global", "economy", "tension", "negotiation",
                      "sanctions", "dispute", "agreement", "markets",
                      "stocks", "currency", "beijing"),
            base_rate=1.2,
            bursts=(Burst(12, 14, 4.0),),
            virality=0.65,
        ),
        TopicSpec(
            name="huawei_ban",
            keywords=("huawei", "google", "ban", "smartphone", "android",
                      "network", "security", "telecom", "blacklist",
                      "chip", "5g", "supplier"),
            base_rate=0.9,
            bursts=(Burst(40, 9, 8.0),),
            virality=0.75,
        ),
        TopicSpec(
            name="iran_tensions",
            keywords=("iran", "iranian", "tehran", "sanction", "nuclear",
                      "drone", "gulf", "tanker", "military", "strait",
                      "missile", "warship"),
            base_rate=1.0,
            bursts=(Burst(50, 12, 6.0), Burst(95, 7, 5.0)),
            virality=0.8,
        ),
        TopicSpec(
            name="gaza_conflict",
            keywords=("israel", "gaza", "israeli", "palestinian", "hamas",
                      "rocket", "militant", "jerusalem", "ceasefire",
                      "airstrike", "border", "strip"),
            entities=("Middle East",),
            base_rate=0.8,
            bursts=(Burst(32, 6, 9.0),),
            virality=0.7,
        ),
        TopicSpec(
            name="japan_emperor",
            keywords=("japan", "abe", "japanese", "emperor", "tokyo",
                      "naruhito", "imperial", "visit", "ceremony",
                      "enthronement", "dynasty", "summit"),
            entities=("Shinzo Abe",),
            base_rate=0.6,
            bursts=(Burst(28, 5, 7.0),),
            virality=0.5,
        ),
        TopicSpec(
            name="impeachment",
            keywords=("impeachment", "pelosi", "democrats", "impeach",
                      "inquiry", "speaker", "congress", "testimony",
                      "subpoena", "hearing", "committee", "mueller"),
            entities=("Nancy Pelosi", "White House", "Donald Trump"),
            base_rate=1.3,
            bursts=(Burst(60, 15, 5.0),),
            virality=0.9,
        ),
        TopicSpec(
            name="kentucky_derby",
            keywords=("derby", "horse", "kentucky", "race", "win",
                      "belmont", "maximum", "winner", "racing", "jockey",
                      "track", "disqualified"),
            entities=("Kentucky Derby", "Maximum Security"),
            base_rate=0.5,
            bursts=(Burst(33, 4, 10.0),),
            virality=0.6,
        ),
        # Twitter-only topics — the Table 7 "unrelated Twitter events".
        TopicSpec(
            name="tv_show",
            keywords=("thrones", "season", "episode", "spoilers", "finale",
                      "review", "characters", "dragon", "plot", "hbo"),
            base_rate=1.1,
            bursts=(Burst(35, 10, 6.0),),
            virality=0.8,
            in_news=False,
        ),
        TopicSpec(
            name="food_talk",
            keywords=("coffee", "rice", "delicious", "sandwiches", "fried",
                      "dish", "cheese", "recipe", "tea", "brunch"),
            base_rate=1.0,
            bursts=(),
            virality=0.3,
            in_news=False,
        ),
        TopicSpec(
            name="football",
            keywords=("football", "manchester", "club", "everton",
                      "fantasy", "goal", "league", "transfer", "striker",
                      "fixture"),
            entities=("Premier League",),
            base_rate=1.2,
            bursts=(Burst(15, 6, 4.0), Burst(80, 6, 4.0)),
            virality=0.65,
            in_news=False,
        ),
        TopicSpec(
            name="social_platforms",
            keywords=("whatsapp", "facebook", "videos", "zuckerberg",
                      "user", "privacy", "platform", "account", "viral",
                      "followers"),
            base_rate=0.9,
            bursts=(Burst(22, 8, 3.0),),
            virality=0.55,
            in_news=False,
        ),
        # News-only topic: covered by outlets but never tweeted about,
        # exercising the "not every news topic trends" path.
        TopicSpec(
            name="municipal_budget",
            keywords=("budget", "council", "municipal", "infrastructure",
                      "funding", "allocation", "audit", "fiscal",
                      "committee", "ordinance"),
            base_rate=0.7,
            bursts=(),
            virality=0.1,
            on_twitter=False,
        ),
    ]


@dataclass
class WorldConfig:
    """Knobs of the synthetic world.

    The defaults produce a corpus that runs the full pipeline in well under
    a minute; benchmarks scale *n_articles* / *n_tweets* up as needed.
    """

    start: datetime = field(default_factory=lambda: datetime(2019, 4, 1))
    duration_days: int = 150  # five months, as in §5.1
    n_articles: int = 2000
    n_tweets: int = 4000
    n_users: int = 300
    influencer_fraction: float = 0.05
    seed: int = 42
    topics: List[TopicSpec] = field(default_factory=default_topics)
    # Shard count of the world's document store; None defers to
    # REPRO_STORE_SHARDS / the engine default.
    store_shards: Optional[int] = None

    def __post_init__(self) -> None:
        if self.duration_days < 1:
            raise ValueError("duration_days must be >= 1")
        if self.store_shards is not None and self.store_shards < 1:
            raise ValueError("store_shards must be >= 1")
        if self.n_users < 2:
            raise ValueError("n_users must be >= 2")
        if not 0.0 < self.influencer_fraction < 1.0:
            raise ValueError("influencer_fraction must lie in (0, 1)")
        if not self.topics:
            raise ValueError("world needs at least one topic")

    @property
    def end(self) -> datetime:
        """End of the simulated window (start + duration)."""
        return self.start + timedelta(days=self.duration_days)

    def news_topics(self) -> List[TopicSpec]:
        """Topic specs that appear in the news stream."""
        return [t for t in self.topics if t.in_news]

    def twitter_topics(self) -> List[TopicSpec]:
        """Topic specs that appear in the tweet stream."""
        return [t for t in self.topics if t.on_twitter]
