"""MABED — Mention-Anomaly-Based Event Detection (§3.3, §4.4).

Pipeline, following Guille & Favre (2014) and the paper's usage:

1. Partition the corpus into fixed-width time slices (60 min for news,
   30 min for tweets in the paper's experiments).
2. For every sufficiently frequent term, compute the mention-anomaly series
   and find the contiguous interval I = [a, b] maximizing the summed
   anomaly; the maximum is the event's magnitude of impact.
3. Rank candidate events by magnitude; greedily keep the top *k*, merging
   duplicates (overlapping interval + same main word, or high vocabulary
   overlap).
4. For each kept event, select related words: candidate terms co-occurring
   with the main word inside I, weighted by the first-order
   auto-correlation measure (Eqs 9–10); keep those with weight above
   *theta*, at most *p* words.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from datetime import timedelta
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..parallel import parallel_map
import numpy as np

from .anomaly import anomaly_series, candidate_weights, max_anomaly_interval
from .event import Event
from .timeslice import SlicedCorpus, TimeSlicer, TimestampedDocument


class MABED:
    """Configurable MABED detector.

    Parameters
    ----------
    slice_width:
        Time-slice width (paper: 60 min news, 30 min tweets).
    min_term_support:
        Minimum number of records a term must appear in to be considered
        a candidate main word (filters noise and spam, §3.3).
    n_related_words:
        p — maximum related words per event.
    theta:
        Minimum Eq-9 weight for a related word (in [0, 1]).
    sigma:
        Vocabulary-overlap ratio above which two overlapping events are
        considered duplicates and merged.
    stopword_filter:
        Optional predicate; terms matching it are never main words.
    workers:
        Worker count for the per-term candidate scan (None defers to
        ``REPRO_WORKERS``; results are order-stable either way).
    """

    def __init__(
        self,
        slice_width: timedelta,
        min_term_support: int = 10,
        n_related_words: int = 10,
        theta: float = 0.6,
        sigma: float = 0.5,
        max_support_ratio: float = 0.25,
        stopword_filter=None,
        workers: Optional[int] = None,
    ) -> None:
        if not 0.0 <= theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if not 0.0 <= sigma <= 1.0:
            raise ValueError("sigma must lie in [0, 1]")
        if not 0.0 < max_support_ratio <= 1.0:
            raise ValueError("max_support_ratio must lie in (0, 1]")
        self.slice_width = slice_width
        self.min_term_support = min_term_support
        self.n_related_words = n_related_words
        self.theta = theta
        self.sigma = sigma
        self.max_support_ratio = max_support_ratio
        self.stopword_filter = stopword_filter
        self.workers = workers

    # -- public API -----------------------------------------------------------

    def detect(
        self,
        documents: Iterable[TimestampedDocument],
        n_events: int,
    ) -> List[Event]:
        """Detect the top *n_events* events in *documents*."""
        with obs.span("events.mabed.detect") as detect_span:
            docs = list(documents)
            if not docs:
                return []
            with obs.span("events.mabed.slice"):
                sliced = TimeSlicer(self.slice_width).slice(docs)
            events = self.detect_on_sliced(sliced, docs, n_events)
            detect_span.annotate(
                n_documents=len(docs),
                n_slices=sliced.n_slices,
                n_events=len(events),
            )
        return events

    def detect_on_sliced(
        self,
        sliced: SlicedCorpus,
        documents: Sequence[TimestampedDocument],
        n_events: int,
        index: Optional["_CorpusIndex"] = None,
        related_cache=None,
    ) -> List[Event]:
        """Detection over an already-sliced corpus (reusable across runs).

        Candidates are processed in decreasing magnitude order; each gets
        its related words computed, then is checked for redundancy against
        already-kept events (overlapping interval + shared vocabulary) and
        either merged away or kept, until *n_events* are selected — the
        same greedy scheme as pyMABED.

        The streaming pipeline passes a pre-built (incrementally
        extended) *index* and a *related_cache* carrying
        ``lookup(main_word, interval, window)`` /
        ``store(main_word, interval, window, related, support)`` — the
        per-candidate related-word selection dominates detection cost
        and its inputs only change when a slice inside the correlation
        window changes.
        """
        with obs.span("events.mabed.candidates"):
            candidates = self._candidate_events(sliced)
        obs.counter("events.mabed.candidates").inc(len(candidates))
        if index is None:
            with obs.span("events.mabed.index"):
                index = _CorpusIndex(documents)
        events: List[Event] = []
        with obs.span("events.mabed.selection") as selection_span:
            considered = 0
            for main_word, interval, magnitude in candidates:
                if len(events) >= n_events:
                    break
                considered += 1
                window = self._correlation_window(sliced, interval)
                cached = (
                    related_cache.lookup(main_word, interval, window)
                    if related_cache is not None
                    else None
                )
                if cached is not None:
                    related, support = cached
                else:
                    related = self._related_words(sliced, index, main_word, interval)
                    support = index.support(
                        main_word,
                        sliced.slice_start(interval[0]),
                        sliced.slice_end(interval[1]),
                    )
                    if related_cache is not None:
                        related_cache.store(
                            main_word, interval, window, related, support
                        )
                candidate = Event(
                    main_word=main_word,
                    related_words=related,
                    start=sliced.slice_start(interval[0]),
                    end=sliced.slice_end(interval[1]),
                    magnitude=magnitude,
                    slice_interval=interval,
                    support=support,
                )
                if any(self._redundant(candidate, kept) for kept in events):
                    continue
                events.append(candidate)
            selection_span.annotate(considered=considered, kept=len(events))
        obs.counter("events.mabed.events_kept").inc(len(events))
        return events

    def _redundant(self, candidate: Event, kept: Event) -> bool:
        """Is *candidate* a duplicate of an already-kept event?

        Duplicates overlap in time and share vocabulary: the candidate's
        main word appears in the kept event's term set (or vice versa), or
        their keyword Jaccard similarity exceeds *sigma*.
        """
        if not self._intervals_overlap(candidate.slice_interval, kept.slice_interval):
            return False
        kept_vocab = set(kept.vocabulary)
        cand_vocab = set(candidate.vocabulary)
        if candidate.main_word in kept_vocab or kept.main_word in cand_vocab:
            return True
        union = kept_vocab | cand_vocab
        if not union:
            return False
        jaccard = len(kept_vocab & cand_vocab) / len(union)
        return jaccard >= self.sigma

    # -- stage 1+2: candidate events --------------------------------------------

    def _candidate_events(
        self, sliced: SlicedCorpus
    ) -> List[Tuple[str, Tuple[int, int], float]]:
        """(main_word, interval, magnitude) for every eligible term.

        The per-term anomaly scans are independent, so they fan out over
        :func:`repro.parallel.parallel_map`, which preserves input order
        — the stable magnitude sort therefore breaks ties exactly as the
        sequential scan did, whatever the worker count.
        """
        max_support = self.max_support_ratio * sliced.total_documents
        eligible = [
            term
            for term in sliced.terms_with_min_support(self.min_term_support)
            if not (self.stopword_filter is not None and self.stopword_filter(term))
            # Terms present in a large share of all records are background
            # vocabulary, not events (MABED's spam/noise immunity, §3.3).
            and sliced.term_total(term) <= max_support
        ]

        def scan(term: str) -> Optional[Tuple[str, Tuple[int, int], float]]:
            series = sliced.term_series(term)
            anomaly = anomaly_series(series, sliced.slice_totals)
            a, b, magnitude = max_anomaly_interval(anomaly)
            if magnitude <= 0:
                return None
            return (term, (a, b), magnitude)

        scanned = parallel_map(
            scan,
            eligible,
            workers=self.workers,
            allow_process=False,
            span_name="events.mabed.candidate_scan",
        )
        out = [item for item in scanned if item is not None]
        out.sort(key=lambda item: -item[2])
        return out

    @staticmethod
    def _intervals_overlap(x: Tuple[int, int], y: Tuple[int, int]) -> bool:
        return x[0] <= y[1] and y[0] <= x[1]

    # -- stage 4: related-word selection ---------------------------------------------

    @staticmethod
    def _correlation_window(
        sliced: SlicedCorpus, interval: Tuple[int, int]
    ) -> Tuple[int, int]:
        """The slice range related-word correlation actually reads.

        The interval widened by one slice per side: the burst's rise and
        fall are where co-movement is measurable (a perfectly flat
        plateau has zero variance and carries no signal).  Cache
        invalidation keys off this window — a cached entry is stale iff
        a slice inside it changed, or the window itself moved (e.g. the
        corpus grew past a previously clamped right edge).
        """
        return (max(0, interval[0] - 1), min(sliced.n_slices - 1, interval[1] + 1))

    def _related_words(
        self,
        sliced: SlicedCorpus,
        index: "_CorpusIndex",
        main_word: str,
        interval: Tuple[int, int],
        max_candidates: int = 50,
    ) -> List[Tuple[str, float]]:
        start = sliced.slice_start(interval[0])
        end = sliced.slice_end(interval[1])
        cooccurring = index.cooccurring_terms(
            main_word, start, end, max_candidates * 3
        )
        if self.stopword_filter is not None:
            cooccurring = [t for t in cooccurring if not self.stopword_filter(t)]
        main_series = sliced.term_series(main_word)
        window = self._correlation_window(sliced, interval)
        terms = cooccurring[:max_candidates]
        if not terms:
            return []
        # One vectorized Eq-9 pass over all candidates — this loop runs
        # for every kept event and dominates detection cost.
        matrix = np.stack([sliced.term_series(term) for term in terms])
        weights = candidate_weights(main_series, matrix, window)
        weighted = [
            (term, float(weight))
            for term, weight in zip(terms, weights)
            if weight > self.theta
        ]
        weighted.sort(key=lambda item: -item[1])
        return weighted[: self.n_related_words]


class _CorpusIndex:
    """Inverted index over a document list for MABED's per-event scans.

    Without this, related-word selection re-scans the entire corpus for
    every candidate event — quadratic once the Twitter corpus reaches
    benchmark scale.
    """

    def __init__(self, documents: Sequence[TimestampedDocument]) -> None:
        self._docs: List[TimestampedDocument] = []
        self._token_sets: List[frozenset] = []
        self._postings: Dict[str, List[int]] = {}
        self.extend(documents)

    def extend(self, documents: Sequence[TimestampedDocument]) -> None:
        """Append *documents*, updating postings incrementally.

        Posting lists stay in append order, so an index grown across
        streaming cycles is byte-identical to one built over the full
        document list at once (documents arrive in the same order).
        """
        base = len(self._docs)
        new_docs = list(documents)
        self._docs.extend(new_docs)
        new_sets = [frozenset(d.tokens) for d in new_docs]
        self._token_sets.extend(new_sets)
        postings = defaultdict(list)
        for i, tokens in enumerate(new_sets):
            for term in tokens:
                postings[term].append(base + i)
        for term, ids in postings.items():
            existing = self._postings.get(term)
            if existing is None:
                self._postings[term] = ids
            else:
                existing.extend(ids)

    def __len__(self) -> int:
        return len(self._docs)

    def _doc_ids_in(self, term: str, start, end) -> List[int]:
        return [
            i
            for i in self._postings.get(term, ())
            if start <= self._docs[i].created_at < end
        ]

    def support(self, term: str, start, end) -> int:
        """Records containing *term* inside [start, end)."""
        return len(self._doc_ids_in(term, start, end))

    def cooccurring_terms(
        self, main_word: str, start, end, limit: int
    ) -> List[str]:
        """Most frequent co-occurring terms with *main_word* in the window.

        Ties are broken alphabetically — ``Counter.most_common`` alone
        inherits set-iteration order, which varies with the interpreter's
        hash seed and would make event vocabularies differ across runs.
        """
        counts: Counter = Counter()
        for i in self._doc_ids_in(main_word, start, end):
            counts.update(self._token_sets[i])
        counts.pop(main_word, None)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [term for term, _count in ranked[:limit]]


def detect_events(
    documents: Iterable[TimestampedDocument],
    n_events: int,
    slice_minutes: int = 30,
    min_term_support: int = 10,
    theta: float = 0.6,
    n_related_words: int = 10,
    stopword_filter=None,
) -> List[Event]:
    """One-call MABED, mirroring the paper's usage (§5.3–§5.4)."""
    detector = MABED(
        slice_width=timedelta(minutes=slice_minutes),
        min_term_support=min_term_support,
        theta=theta,
        n_related_words=n_related_words,
        stopword_filter=stopword_filter,
    )
    return detector.detect(documents, n_events)
