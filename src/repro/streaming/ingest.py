"""Append-only ingestion with watermark-based late-record handling.

:class:`IngestSession` is the streaming front door: records append
through the WAL-backed :class:`~repro.store.ShardedCollection`, so an
acknowledged append survives a crash, and every collection carries a
**watermark** — ``max(accepted created_at) - allowed_lateness``.  A
record older than the watermark *at the start of its append call* is
dropped (counted, never stored): the incremental pipeline has already
folded the slices it would land in, and an unbounded right to rewrite
history would make per-cycle cost O(all data) again.  Records between
the watermark and the newest accepted timestamp are accepted
out-of-order; the slice window re-anchors or back-fills for them.

The watermark itself is derived state: on reopen it is recomputed from
the store's surviving documents (:meth:`IngestSession.resume`), so a
crash can never make the watermark disagree with the data.

Fault sites (``repro.resilience.faults`` kill points, per collection):
``streaming.ingest.append.<collection>`` fires before the store write,
``streaming.ingest.ack.<collection>`` after it — a fatal fault between
the two leaves acknowledged-but-unreported documents, exactly the torn
state the recovery harness replays.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .. import obs
from ..resilience import faults
from ..store import Database, ValidationError
from ..tools.annotations import guarded_by


@dataclass
class IngestAck:
    """Durable acknowledgement of one append batch."""

    collection: str
    ids: List[Any] = field(default_factory=list)
    dropped_late: int = 0
    watermark: Optional[datetime] = None

    @property
    def accepted(self) -> int:
        """Number of records durably written (``len(self.ids)``)."""
        return len(self.ids)


def find_invalid_record(
    records: Sequence[Any], reference: Optional[datetime] = None
) -> Optional[Tuple[int, str]]:
    """``(index, reason)`` of the first record that cannot be appended.

    A record must be a mapping whose ``created_at`` is a ``datetime``,
    timezone-aware exactly when *reference* (the collection's current
    watermark, if any) and the batch's earlier records are: naive and
    aware timestamps cannot be ordered against each other.  Returns
    None when every record is valid.
    """
    for index, record in enumerate(records):
        if not isinstance(record, Mapping):
            return index, f"record is a {type(record).__name__}, not a mapping"
        created = record.get("created_at")
        if not isinstance(created, datetime):
            return index, f"'created_at' must be a datetime, got {created!r}"
        if reference is None:
            reference = created
        elif (created.tzinfo is None) != (reference.tzinfo is None):
            return index, "'created_at' mixes timezone-aware and naive datetimes"
    return None


@guarded_by("_lock", "_high_water")
class IngestSession:
    """Watermarked append-only writer over a streaming database.

    Thread-safe: the watermark read and the post-write high-water
    update are serialized under ``_lock``; the store write itself runs
    outside the lock (the collection has its own locking) so concurrent
    appends to different collections do not serialize on each other.
    """

    def __init__(
        self,
        database: Database,
        allowed_lateness: timedelta = timedelta(0),
    ) -> None:
        if allowed_lateness < timedelta(0):
            raise ValueError("allowed_lateness must be >= 0")
        self._lock = threading.Lock()
        self.database = database
        self.allowed_lateness = allowed_lateness
        self._high_water: Dict[str, datetime] = {}

    @classmethod
    def resume(
        cls,
        database: Database,
        collections: Sequence[str] = ("news", "tweets"),
        allowed_lateness: timedelta = timedelta(0),
    ) -> "IngestSession":
        """Reopen over an existing store, rebuilding watermarks from it.

        The store's WAL-recovered documents are the source of truth: the
        high-water mark per collection is the max surviving
        ``created_at``, which can only lag (never lead) the pre-crash
        value — a replayed late record that would previously have been
        dropped is dropped again or safely re-folded, never lost.
        """
        session = cls(database, allowed_lateness=allowed_lateness)
        for name in collections:
            if name not in database:
                continue
            newest: Optional[datetime] = None
            for doc in database[name].find():
                created = doc["created_at"]
                if newest is None or created > newest:
                    newest = created
            if newest is not None:
                session._high_water[name] = newest
        return session

    # -- watermarks --------------------------------------------------------

    def _watermark_locked(self, collection: str) -> Optional[datetime]:
        high = self._high_water.get(collection)
        if high is None:
            return None
        return high - self.allowed_lateness

    def watermark(self, collection: str) -> Optional[datetime]:
        """Current watermark of *collection* (None before any accept)."""
        with self._lock:
            return self._watermark_locked(collection)

    # -- appends -----------------------------------------------------------

    def append(
        self, collection: str, records: Iterable[Dict[str, Any]]
    ) -> IngestAck:
        """Append *records*; returns a durable :class:`IngestAck`.

        Records are judged against the watermark as of the start of the
        call (an accepted record in the same batch does not advance the
        bar for its siblings).  Any ``_id`` on an input record is
        discarded — the store assigns monotonically increasing ids in
        arrival order, which is what keeps streaming and batch document
        orders identical.

        Every record is checked (:func:`find_invalid_record`) before
        anything is written: one invalid record raises
        :class:`~repro.store.ValidationError` naming its batch index and
        the whole batch is refused.
        """
        batch = list(records)
        with self._lock:
            watermark = self._watermark_locked(collection)
        invalid = find_invalid_record(batch, watermark)
        if invalid is not None:
            index, reason = invalid
            raise ValidationError(f"{collection} batch index {index}: {reason}")
        accepted: List[Dict[str, Any]] = []
        dropped = 0
        for record in batch:
            if watermark is not None and record["created_at"] < watermark:
                dropped += 1
                continue
            cleaned = {k: v for k, v in record.items() if k != "_id"}
            accepted.append(cleaned)
        faults.inject(f"streaming.ingest.append.{collection}")
        ids: List[Any] = []
        if accepted:
            ids = self.database[collection].insert_many(accepted)
        faults.inject(f"streaming.ingest.ack.{collection}")
        with self._lock:
            high = self._high_water.get(collection)
            for record in accepted:
                created = record["created_at"]
                if high is None or created > high:
                    high = created
            if high is not None:
                self._high_water[collection] = high
            watermark_after = self._watermark_locked(collection)
        obs.counter("streaming.ingest.accepted").inc(len(ids))
        obs.counter("streaming.ingest.late_dropped").inc(dropped)
        return IngestAck(
            collection=collection,
            ids=ids,
            dropped_late=dropped,
            watermark=watermark_after,
        )
