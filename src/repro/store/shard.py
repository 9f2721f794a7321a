"""The sharded store engine: hash-partitioned shards behind one facade.

:class:`ShardedCollection` is the scale-out successor to the coarse
single-lock :class:`~repro.store.Collection` (ROADMAP item 2).  Documents
are hash-partitioned across N :class:`Shard` objects by a stable
``sha256`` routing of their ``_id``, each shard owning its own RLock,
field indexes, inverted text index, and (in durable mode) write-ahead
log — so readers and writers on different shards never contend.

**Result parity.** The engine's behavioral contract is bitwise parity
with the legacy collection (asserted by the differential harness in
``tests/store/test_differential.py``): every multi-shard read merges
per-shard results by each document's global *insertion sequence number*,
which reproduces the legacy single-dict iteration order exactly, for any
shard count.

**Durability.** With ``wal_dir`` set, every acknowledged write is framed
into the owning shard's WAL *before* it is applied; checkpoints
serialize a shard's documents to ``shard<k>/checkpoint.json`` via the
temp-file + ``os.replace`` discipline of
:func:`repro.resilience.atomic.atomic_write`, then compact the WAL
down to the records newer than the checkpoint's LSN watermark.  A killed
process recovers to exactly the acknowledged-write prefix: torn WAL
tails are discarded, replay is idempotent by LSN, and a crash anywhere
between checkpoint phases leaves either the old or the new state.

**Fault injection.** The kill points exercised by
``tests/store/test_wal_recovery.py`` run through
:func:`repro.resilience.faults.inject` at these sites (``<tag>`` is
``shard00``, ``shard01``, ...)::

    store.wal.append.<tag>        before a WAL append (op not acked)
    store.wal.torn.<tag>          append dies mid-write (torn frame)
    store.checkpoint.begin.<tag>  before the checkpoint starts
    store.checkpoint.snapshot.<tag>  after serialization, before the temp write
    store.checkpoint.swap.<tag>   temp file written, before os.replace
    store.wal.compact.<tag>       checkpoint durable, before compaction

Every injection happens with **no lock held**: the fault plan has its own
witnessed lock, and checking it under a shard lock would create a
runtime lock-order edge the static analyzer cannot derive (the plan
receiver is a local variable inside ``inject``).

**Lock order.** ``ShardedCollection._lock`` (the meta lock, guarding id /
sequence counters and index registries) and ``Shard._lock`` are never
nested — the facade always releases the meta lock before touching a
shard.  Shard-level obs counters are emitted from ``*_locked`` helpers,
which the static lock-order graph resolves, keeping the lockwitness
cross-check green.
"""

from __future__ import annotations

import copy
import hashlib
import heapq
import json
import os
import tempfile
import threading
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .. import obs
from ..resilience import faults
from ..resilience.atomic import atomic_write
from ..tools.annotations import guarded_by
from .aggregate import run_pipeline
from .collection import Cursor
from .errors import DuplicateKeyError, QueryError, ValidationError, WALError
from .index import HashIndex, InvertedIndex, plan_index_lookup
from .planner import (
    PLAN_FIELD_INDEX,
    PLAN_ID_LOOKUP,
    PLAN_SCAN,
    PLAN_TEXT_INDEX,
    QueryPlan,
    plan_query,
)
from .query import (
    apply_update,
    get_path,
    matches,
    project,
    text_matches,
    _MISSING,
)

ENGINE_VERSION = 1

#: Default shard count when neither the caller nor the environment says.
SHARDS_ENV = "REPRO_STORE_SHARDS"
DEFAULT_SHARD_COUNT = 4

#: Auto-checkpoint a shard once this many WAL appends accumulate.
DEFAULT_CHECKPOINT_EVERY = 1024


def default_shard_count() -> int:
    """Shard count from ``REPRO_STORE_SHARDS`` (default 4)."""
    raw = os.environ.get(SHARDS_ENV, "")
    count = int(raw) if raw.strip() else DEFAULT_SHARD_COUNT
    if count < 1:
        raise ValueError(f"{SHARDS_ENV} must be >= 1, got {count}")
    return count


def _route_key(doc_id: Any) -> str:
    """Canonical routing string: equal dict keys map to equal strings.

    Python dict keys compare ``1 == 1.0 == True``, so all three must
    route to the same shard or a duplicate ``_id`` could land undetected
    on a different shard.
    """
    if isinstance(doc_id, bool):
        return f"num:{int(doc_id)}"
    if isinstance(doc_id, int):
        return f"num:{doc_id}"
    if isinstance(doc_id, float):
        if doc_id.is_integer():
            return f"num:{int(doc_id)}"
        return f"num:{doc_id!r}"
    if isinstance(doc_id, str):
        return f"str:{doc_id}"
    return f"obj:{doc_id!r}"


def shard_index(doc_id: Any, shard_count: int) -> int:
    """Stable shard for *doc_id*: process-independent sha256 routing.

    ``hash()`` is salted per process, which would scatter a recovered
    store's documents differently from the run that wrote them; sha256
    over the canonical key keeps routing stable across processes,
    restarts, and platforms.
    """
    if shard_count == 1:
        return 0
    digest = hashlib.sha256(_route_key(doc_id).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % shard_count


def _encode_doc(value: Any) -> Any:
    # Imported lazily: repro.resilience.codecs pulls repro.core, which
    # imports repro.store back — fine at call time, a cycle at import time.
    from ..resilience.codecs import encode_json_value

    return encode_json_value(value)


def _decode_doc(value: Any) -> Any:
    from ..resilience.codecs import decode_json_value

    return decode_json_value(value)


@guarded_by(
    "_lock",
    "_docs",
    "_seqs",
    "_indexes",
    "_inverted",
    "_text_fields",
    "_lsn",
    "_appended",
    "_ckpt_busy",
)
class Shard:
    """One hash partition: documents, indexes, WAL, and its own lock.

    All public methods take and release ``self._lock``; ``*_locked``
    helpers assume the caller holds it.  The shard never calls back into
    the owning collection and never touches another shard, so shard
    locks are leaves of the lock-order graph (their only outgoing edge
    is to the obs registry).
    """

    def __init__(
        self,
        index: int,
        collection_name: str,
        wal_path: Optional[str] = None,
        checkpoint_path: Optional[str] = None,
    ) -> None:
        from .wal import ShardWAL

        self.index = index
        self.tag = f"shard{index:02d}"
        self.collection_name = collection_name
        self._lock = threading.RLock()
        self._docs: Dict[Any, Dict[str, Any]] = {}
        self._seqs: Dict[Any, int] = {}
        self._indexes: Dict[str, HashIndex] = {}
        self._inverted: Optional[InvertedIndex] = None
        self._text_fields: Tuple[str, ...] = ()
        self._lsn = 0
        self._appended = 0
        self._ckpt_busy = False
        if wal_path:
            self._wal: Optional[ShardWAL] = ShardWAL(wal_path)
        else:
            self._wal = None
        self._ckpt_path = checkpoint_path

    # -- write path ---------------------------------------------------------

    def insert(
        self,
        doc: Dict[str, Any],
        seq: int,
        next_id_hint: Optional[int],
        validator: Optional[Callable[[Dict[str, Any]], bool]],
        torn: Optional[BaseException] = None,
    ) -> None:
        """Insert an already-routed, already-copied document."""
        with self._lock:
            if doc["_id"] in self._docs:
                raise DuplicateKeyError(doc["_id"])
            self._validate_locked(doc, validator)
            self._log_locked("put", doc["_id"], doc, seq, next_id_hint, torn)
            self._apply_put_locked(doc, seq)

    def update_by_id(
        self,
        doc_id: Any,
        update: Dict[str, Any],
        plan: QueryPlan,
        validator: Optional[Callable[[Dict[str, Any]], bool]],
        torn: Optional[BaseException] = None,
    ) -> bool:
        """Re-verify *plan* against the live document, then update it.

        Returns False when the document vanished or stopped matching
        between the caller's scan and this call (the facade retries).
        The update is applied to a copy and swapped in whole, so a
        failing update operator never leaves a half-updated document.
        """
        with self._lock:
            doc = self._docs.get(doc_id)
            if doc is None or not self._doc_matches_locked(plan, doc):
                return False
            new_doc = copy.deepcopy(doc)
            apply_update(new_doc, update)
            self._validate_locked(new_doc, validator)
            self._log_locked("put", doc_id, new_doc, self._seqs[doc_id], None, torn)
            self._replace_doc_locked(doc_id, new_doc)
            return True

    def update_matching(
        self,
        plan: QueryPlan,
        update: Dict[str, Any],
        validator: Optional[Callable[[Dict[str, Any]], bool]],
        torn: Optional[BaseException] = None,
    ) -> int:
        """Update every matching document in this shard; returns the count."""
        with self._lock:
            targets = [doc_id for doc_id, _doc in self._matching_locked(plan)]
            for doc_id in targets:
                new_doc = copy.deepcopy(self._docs[doc_id])
                apply_update(new_doc, update)
                self._validate_locked(new_doc, validator)
                self._log_locked(
                    "put", doc_id, new_doc, self._seqs[doc_id], None, torn
                )
                self._replace_doc_locked(doc_id, new_doc)
            return len(targets)

    def replace_by_id(
        self,
        doc_id: Any,
        replacement: Dict[str, Any],
        plan: QueryPlan,
        validator: Optional[Callable[[Dict[str, Any]], bool]],
        torn: Optional[BaseException] = None,
    ) -> bool:
        """Wholesale-replace one document (keeps ``_id`` and sequence)."""
        with self._lock:
            doc = self._docs.get(doc_id)
            if doc is None or not self._doc_matches_locked(plan, doc):
                return False
            new_doc = copy.deepcopy(replacement)
            new_doc["_id"] = doc_id
            self._validate_locked(new_doc, validator)
            self._log_locked("put", doc_id, new_doc, self._seqs[doc_id], None, torn)
            self._replace_doc_locked(doc_id, new_doc)
            return True

    def delete_by_id(
        self, doc_id: Any, plan: QueryPlan, torn: Optional[BaseException] = None
    ) -> bool:
        """Re-verify *plan*, then delete the document."""
        with self._lock:
            doc = self._docs.get(doc_id)
            if doc is None or not self._doc_matches_locked(plan, doc):
                return False
            self._log_locked("del", doc_id, None, self._seqs[doc_id], None, torn)
            self._remove_doc_locked(doc_id)
            return True

    def delete_matching(
        self, plan: QueryPlan, torn: Optional[BaseException] = None
    ) -> int:
        """Delete every matching document in this shard; returns the count."""
        with self._lock:
            targets = [doc_id for doc_id, _doc in self._matching_locked(plan)]
            for doc_id in targets:
                self._log_locked(
                    "del", doc_id, None, self._seqs[doc_id], None, torn
                )
                self._remove_doc_locked(doc_id)
            return len(targets)

    # -- locked write helpers ----------------------------------------------

    def _validate_locked(
        self,
        doc: Dict[str, Any],
        validator: Optional[Callable[[Dict[str, Any]], bool]],
    ) -> None:
        if validator is not None and not validator(doc):
            raise ValidationError(
                f"document failed validation for collection "
                f"{self.collection_name!r}"
            )

    def _log_locked(
        self,
        op: str,
        doc_id: Any,
        doc: Optional[Dict[str, Any]],
        seq: int,
        next_id_hint: Optional[int],
        torn: Optional[BaseException],
    ) -> None:
        """Frame the operation into the WAL before it is applied.

        With *torn* set (the ``store.wal.torn.*`` kill point), a partial
        frame is written and the fault re-raised: the op is neither
        acknowledged nor applied, and recovery discards the tear.
        """
        if self._wal is None:
            return
        self._lsn += 1
        record: Dict[str, Any] = {
            "lsn": self._lsn,
            "op": op,
            "id": _encode_doc(doc_id),
            "seq": seq,
        }
        if doc is not None:
            record["doc"] = _encode_doc(doc)
        if next_id_hint is not None:
            record["nid"] = next_id_hint
        if torn is not None:
            self._wal.append_torn(record)
            raise torn
        self._wal.append(record)
        self._appended += 1

    def _apply_put_locked(self, doc: Dict[str, Any], seq: int) -> None:
        self._docs[doc["_id"]] = doc
        self._seqs[doc["_id"]] = seq
        for index in self._indexes.values():
            index.add(doc["_id"], doc)
        if self._inverted is not None:
            self._inverted.add(doc["_id"], doc)

    def _replace_doc_locked(self, doc_id: Any, new_doc: Dict[str, Any]) -> None:
        # Same-key assignment keeps the dict position; the sequence
        # number is untouched, so updates never reorder scans.
        self._docs[doc_id] = new_doc
        for index in self._indexes.values():
            index.update(doc_id, new_doc)
        if self._inverted is not None:
            self._inverted.update(doc_id, new_doc)

    def _remove_doc_locked(self, doc_id: Any) -> None:
        self._docs.pop(doc_id, None)
        self._seqs.pop(doc_id, None)
        for index in self._indexes.values():
            index.remove(doc_id)
        if self._inverted is not None:
            self._inverted.remove(doc_id)

    # -- read path ----------------------------------------------------------

    def _matching_locked(
        self, plan: QueryPlan
    ) -> Iterator[Tuple[Any, Dict[str, Any]]]:
        """Yield live ``(doc_id, doc)`` pairs matching *plan*.

        The access path follows the plan kind, falling back to a scan
        when this shard lacks the planned index (a create-index race);
        candidates are always re-verified against the residual filter,
        so a degraded path changes cost, never results.
        """
        text_resolved = False
        pool: Iterable[Tuple[Any, Dict[str, Any]]]
        if plan.kind == PLAN_ID_LOOKUP:
            doc = self._docs.get(plan.id_value)
            pool = [] if doc is None else [(plan.id_value, doc)]
        elif plan.kind == PLAN_TEXT_INDEX and self._inverted is not None:
            assert plan.text is not None
            ids = self._inverted.lookup(plan.text.terms, plan.text.mode)
            pool = [(i, self._docs[i]) for i in ids if i in self._docs]
            text_resolved = True
        elif plan.kind == PLAN_FIELD_INDEX:
            ids = plan_index_lookup(plan.residual, self._indexes)
            if ids is None:
                pool = self._docs.items()
            else:
                pool = [(i, self._docs[i]) for i in ids if i in self._docs]
        else:
            pool = self._docs.items()
        for doc_id, doc in pool:
            if plan.residual and not matches(doc, plan.residual):
                continue
            if plan.text is not None and not text_resolved:
                if not text_matches(doc, self._text_fields, plan.text):
                    continue
            yield doc_id, doc

    def _doc_matches_locked(self, plan: QueryPlan, doc: Dict[str, Any]) -> bool:
        """Full predicate re-check against a live document (no index trust)."""
        if plan.residual and not matches(doc, plan.residual):
            return False
        if plan.text is not None:
            return text_matches(doc, self._text_fields, plan.text)
        return True

    def collect(self, plan: QueryPlan) -> List[Tuple[int, Dict[str, Any]]]:
        """Matching documents as ``(seq, deep copy)`` pairs, sequence-ordered."""
        with self._lock:
            out = [
                (self._seqs[doc_id], copy.deepcopy(doc))
                for doc_id, doc in self._matching_locked(plan)
            ]
        out.sort(key=lambda pair: pair[0])
        return out

    def first_match(self, plan: QueryPlan) -> Optional[Tuple[int, Any]]:
        """The lowest-sequence match as ``(seq, doc_id)``, or None."""
        with self._lock:
            best: Optional[Tuple[int, Any]] = None
            for doc_id, _doc in self._matching_locked(plan):
                seq = self._seqs[doc_id]
                if best is None or seq < best[0]:
                    best = (seq, doc_id)
            return best

    def count_matching(self, plan: QueryPlan) -> int:
        """Number of matching documents (no copies)."""
        with self._lock:
            return sum(1 for _ in self._matching_locked(plan))

    def doc_count(self) -> int:
        """Number of documents resident in this shard."""
        with self._lock:
            return len(self._docs)

    def appended(self) -> int:
        """WAL appends since the last completed checkpoint."""
        with self._lock:
            return self._appended

    # -- indexes ------------------------------------------------------------

    def create_field_index(self, field: str) -> None:
        """Build (or rebuild) this shard's hash index on *field*."""
        with self._lock:
            index = HashIndex(field)
            index.rebuild(self._docs)
            self._indexes[field] = index

    def drop_field_index(self, field: str) -> None:
        """Drop this shard's hash index on *field* if present."""
        with self._lock:
            self._indexes.pop(field, None)

    def set_text_index(self, fields: Sequence[str], indexed: bool) -> None:
        """Declare text fields; build posting lists when *indexed*."""
        with self._lock:
            self._text_fields = tuple(fields)
            if indexed:
                inverted = InvertedIndex(fields)
                inverted.rebuild(self._docs)
                self._inverted = inverted
            else:
                self._inverted = None

    # -- checkpoint / recovery ----------------------------------------------

    def checkpoint(self, next_id_hint: int) -> bool:
        """Write an atomic checkpoint, then compact the WAL behind it.

        Phases (fault-injection sites fire between them, never under the
        lock): serialize under the lock → write a same-directory temp
        file → ``os.replace`` → compact.  A crash at any point leaves
        either the previous checkpoint + full WAL or the new checkpoint
        (+ possibly uncompacted WAL, which replay skips by LSN).
        """
        if self._wal is None or self._ckpt_path is None:
            return False
        with self._lock:
            if self._ckpt_busy:
                return False
            self._ckpt_busy = True
        try:
            faults.inject(f"store.checkpoint.begin.{self.tag}")
            with self._lock:
                payload = self._snapshot_payload_locked(next_id_hint)
                watermark = self._lsn
            data = json.dumps(payload, sort_keys=True).encode("utf-8")
            faults.inject(f"store.checkpoint.snapshot.{self.tag}")
            directory = os.path.dirname(self._ckpt_path) or "."
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                faults.inject(f"store.checkpoint.swap.{self.tag}")
                os.replace(tmp, self._ckpt_path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
            faults.inject(f"store.wal.compact.{self.tag}")
            with self._lock:
                self._compact_locked(watermark)
            return True
        finally:
            with self._lock:
                self._ckpt_busy = False

    def _snapshot_payload_locked(self, next_id_hint: int) -> Dict[str, Any]:
        return {
            "version": ENGINE_VERSION,
            "shard": self.index,
            "lsn": self._lsn,
            "next_id": next_id_hint,
            "docs": [
                [self._seqs[doc_id], _encode_doc(doc)]
                for doc_id, doc in self._docs.items()
            ],
        }

    def _compact_locked(self, watermark: int) -> None:
        assert self._wal is not None
        self._wal.compact(watermark)
        self._appended = 0
        obs.counter("store.wal.compactions").inc()
        obs.counter("store.checkpoints").inc()

    def recover(self) -> Tuple[int, int]:
        """Load checkpoint + replay the WAL; returns ``(max_seq, next_id)``.

        ``max_seq`` is -1 and ``next_id`` 1 when the shard held nothing.
        Raises :class:`WALError` on a corrupt checkpoint file — only WAL
        *tails* are expendable; a damaged checkpoint means data loss the
        engine must not silently absorb.
        """
        with self._lock:
            return self._recover_locked()

    def _recover_locked(self) -> Tuple[int, int]:
        max_seq = -1
        next_id = 1
        watermark = 0
        if self._ckpt_path and os.path.exists(self._ckpt_path):
            try:
                with open(self._ckpt_path, "rb") as handle:
                    payload = json.loads(handle.read().decode("utf-8"))
                watermark = int(payload["lsn"])
                next_id = int(payload.get("next_id", 1))
                entries = payload["docs"]
            except (ValueError, KeyError, UnicodeDecodeError) as exc:
                raise WALError(
                    f"corrupt shard checkpoint {self._ckpt_path!r}: {exc}"
                ) from exc
            for seq, encoded in entries:
                doc = _decode_doc(encoded)
                self._docs[doc["_id"]] = doc
                self._seqs[doc["_id"]] = int(seq)
                max_seq = max(max_seq, int(seq))
            self._lsn = watermark
        if self._wal is not None:
            records = self._wal.replay()
            if self._wal.torn_tail:
                obs.counter("store.wal.torn_records").inc()
            applied = 0
            for record in records:
                lsn = int(record["lsn"])
                if lsn <= watermark:
                    continue
                self._lsn = max(self._lsn, lsn)
                doc_id = _decode_doc(record["id"])
                if record["op"] == "put":
                    doc = _decode_doc(record["doc"])
                    seq = int(record["seq"])
                    self._docs[doc_id] = doc
                    self._seqs[doc_id] = seq
                    max_seq = max(max_seq, seq)
                elif record["op"] == "del":
                    self._docs.pop(doc_id, None)
                    self._seqs.pop(doc_id, None)
                else:
                    raise WALError(
                        f"unknown WAL op {record['op']!r} in {self._wal.path!r}"
                    )
                next_id = max(next_id, int(record.get("nid", 1)))
                applied += 1
            self._appended = applied
            obs.counter("store.wal.replayed").inc(applied)
        if self._seqs:
            max_seq = max(max_seq, max(self._seqs.values()))
        return max_seq, next_id

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()


@guarded_by(
    "_lock",
    "_next_id",
    "_next_seq",
    "_version",
    "_field_index_names",
    "_text_field_names",
    "_text_indexed",
    "_dumped",
)
class ShardedCollection:
    """Drop-in :class:`~repro.store.Collection` replacement, sharded.

    The facade owns only cross-shard coordination state under its meta
    lock — the ``_id`` counter, the global insertion-sequence counter,
    the mutation version (for dirty-tracked persistence), and the index
    registries.  Documents live in the shards.  The meta lock is never
    held across a shard call, so the two lock levels never nest.

    With *wal_dir* set the collection is durable: an ``engine.json``
    manifest pins the shard count and index definitions, and each shard
    keeps ``wal.log`` + ``checkpoint.json`` under ``wal_dir/shard<k>/``.
    Re-opening a :class:`ShardedCollection` on the same directory
    recovers exactly the acknowledged writes.

    Multi-document operations (``insert_many``, ``update_many``,
    ``delete_many``) are atomic per shard but not across shards: a crash
    mid-operation can persist the writes already routed to some shards.
    Single-document operations are atomic.
    """

    def __init__(
        self,
        name: str,
        shard_count: Optional[int] = None,
        validator: Optional[Callable[[Dict[str, Any]], bool]] = None,
        wal_dir: Optional[str] = None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    ) -> None:
        self.name = name
        self._lock = threading.RLock()
        self._validator = validator
        self._wal_dir = wal_dir
        self._checkpoint_every = checkpoint_every
        self._next_id = 1
        self._next_seq = 0
        self._version = 0
        self._dumped: Dict[str, int] = {}
        self._field_index_names: Tuple[str, ...] = ()
        self._text_field_names: Tuple[str, ...] = ()
        self._text_indexed = False

        manifest: Optional[Dict[str, Any]] = None
        if wal_dir:
            os.makedirs(wal_dir, exist_ok=True)
            manifest = self._read_manifest()
            if manifest is not None:
                on_disk = int(manifest["shards"])
                if shard_count is not None and shard_count != on_disk:
                    raise WALError(
                        f"collection {name!r} was created with {on_disk} "
                        f"shards; cannot reopen with {shard_count}"
                    )
                shard_count = on_disk
        if shard_count is None:
            shard_count = default_shard_count()
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")

        self._shards: Tuple[Shard, ...] = tuple(
            Shard(
                i,
                name,
                wal_path=(
                    os.path.join(wal_dir, f"shard{i:02d}", "wal.log")
                    if wal_dir
                    else None
                ),
                checkpoint_path=(
                    os.path.join(wal_dir, f"shard{i:02d}", "checkpoint.json")
                    if wal_dir
                    else None
                ),
            )
            for i in range(shard_count)
        )

        if wal_dir:
            if manifest is not None:
                self._field_index_names = tuple(manifest.get("field_indexes", ()))
                self._text_field_names = tuple(manifest.get("text_fields", ()))
                self._text_indexed = bool(manifest.get("text_indexed", False))
            max_seq = -1
            next_id = 1
            for shard in self._shards:
                shard_seq, shard_next = shard.recover()
                max_seq = max(max_seq, shard_seq)
                next_id = max(next_id, shard_next)
            self._next_seq = max_seq + 1
            self._next_id = next_id
            for field in self._field_index_names:
                for shard in self._shards:
                    shard.create_field_index(field)
            if self._text_field_names:
                for shard in self._shards:
                    shard.set_text_index(self._text_field_names, self._text_indexed)
            self._write_manifest()

    # -- basic properties ---------------------------------------------------

    @property
    def shard_count(self) -> int:
        """Number of hash partitions backing this collection."""
        return len(self._shards)

    def __len__(self) -> int:
        return sum(shard.doc_count() for shard in self._shards)

    def __repr__(self) -> str:
        return (
            f"ShardedCollection({self.name!r}, {len(self)} docs, "
            f"{self.shard_count} shards)"
        )

    def _shard_for(self, doc_id: Any) -> Shard:
        return self._shards[shard_index(doc_id, len(self._shards))]

    def _shards_for_plan(self, plan: QueryPlan) -> Tuple[Shard, ...]:
        """The shards a plan must visit (one for ``id_lookup``, else all)."""
        if plan.kind == PLAN_ID_LOOKUP:
            return (self._shard_for(plan.id_value),)
        return self._shards

    def _plan(self, query: Optional[Dict[str, Any]]) -> QueryPlan:
        with self._lock:
            indexed = self._field_index_names
            text_fields = self._text_field_names
            text_indexed = self._text_indexed
        return plan_query(
            query,
            indexed_fields=indexed,
            text_fields=text_fields,
            text_indexed=text_indexed,
        )

    def _scan_plan(self) -> QueryPlan:
        """An unconditional scan-all plan (not counted in ``store.plan.*``)."""
        return QueryPlan(kind=PLAN_SCAN, residual={})

    def _merged(
        self, plan: QueryPlan
    ) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """Matching ``(seq, doc copy)`` pairs across shards, in global order."""
        collected = [shard.collect(plan) for shard in self._shards_for_plan(plan)]
        return heapq.merge(*collected, key=lambda pair: pair[0])

    def _bump_version(self) -> None:
        with self._lock:
            self._version += 1

    # -- durability plumbing ------------------------------------------------

    @property
    def _durable(self) -> bool:
        return self._wal_dir is not None

    def _manifest_path(self) -> str:
        assert self._wal_dir is not None
        return os.path.join(self._wal_dir, "engine.json")

    def _read_manifest(self) -> Optional[Dict[str, Any]]:
        path = self._manifest_path()
        if not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as handle:
                manifest = json.loads(handle.read().decode("utf-8"))
            if int(manifest["version"]) != ENGINE_VERSION:
                raise WALError(
                    f"engine manifest {path!r} has version "
                    f"{manifest['version']}, expected {ENGINE_VERSION}"
                )
            int(manifest["shards"])
        except WALError:
            raise
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            raise WALError(f"corrupt engine manifest {path!r}: {exc}") from exc
        return manifest

    def _write_manifest(self) -> None:
        if not self._durable:
            return
        with self._lock:
            payload = {
                "version": ENGINE_VERSION,
                "name": self.name,
                "shards": len(self._shards),
                "field_indexes": list(self._field_index_names),
                "text_fields": list(self._text_field_names),
                "text_indexed": self._text_indexed,
            }
        atomic_write(
            self._manifest_path(),
            json.dumps(payload, sort_keys=True, indent=2).encode("utf-8"),
        )

    def _wal_gate(self, shard: Shard) -> Optional[BaseException]:
        """Fault kill points guarding the next WAL append on *shard*.

        ``store.wal.append.*`` raises here — before any byte is written,
        so the op is neither acked, applied, nor durable.
        ``store.wal.torn.*`` is returned instead of raised: the shard
        writes a half frame and then re-raises it, modeling a crash
        mid-``write``.  Both injections run with no lock held.
        """
        if not self._durable:
            return None
        faults.inject(f"store.wal.append.{shard.tag}")
        try:
            faults.inject(f"store.wal.torn.{shard.tag}")
        except faults.FaultError as exc:
            return exc
        return None

    def _maybe_checkpoint(self, shard: Shard) -> None:
        """Auto-checkpoint *before* the triggering append, so a faulting
        checkpoint aborts the op while it is still unacknowledged."""
        if not self._durable or self._checkpoint_every <= 0:
            return
        if shard.appended() >= self._checkpoint_every:
            self._checkpoint_shard(shard)

    def _checkpoint_shard(self, shard: Shard) -> bool:
        with self._lock:
            next_id_hint = self._next_id
        return shard.checkpoint(next_id_hint)

    def checkpoint(self) -> int:
        """Checkpoint every shard now; returns how many were written."""
        if not self._durable:
            return 0
        count = 0
        for shard in self._shards:
            if self._checkpoint_shard(shard):
                count += 1
        return count

    def close(self) -> None:
        """Release WAL file handles (the store stays usable; they reopen)."""
        for shard in self._shards:
            shard.close()

    # -- writes -------------------------------------------------------------

    def insert_one(self, document: Dict[str, Any]) -> Any:
        """Insert one document; returns its ``_id``."""
        if not isinstance(document, dict):
            raise QueryError("documents must be dicts")
        doc = copy.deepcopy(document)
        with self._lock:
            next_id_hint: Optional[int] = None
            if "_id" not in doc:
                doc["_id"] = self._next_id
                self._next_id += 1
                next_id_hint = self._next_id
            elif isinstance(doc["_id"], int) and doc["_id"] >= self._next_id:
                # An explicit integer _id (snapshot restore, bulk import)
                # must advance the auto-id counter, or the next
                # auto-assigned insert would collide with it.  The hint
                # is WAL-logged so crash recovery keeps the advance.
                self._next_id = doc["_id"] + 1
                next_id_hint = self._next_id
            seq = self._next_seq
            self._next_seq += 1
            self._version += 1
        shard = self._shard_for(doc["_id"])
        self._maybe_checkpoint(shard)
        torn = self._wal_gate(shard)
        shard.insert(doc, seq, next_id_hint, self._validator, torn)
        obs.counter("store.inserts").inc()
        return doc["_id"]

    def insert_many(self, documents: Iterable[Dict[str, Any]]) -> List[Any]:
        """Insert many documents; returns their ``_id``s."""
        return [self.insert_one(doc) for doc in documents]

    def update_one(self, query: Dict[str, Any], update: Dict[str, Any]) -> int:
        """Apply *update* to the first (lowest-sequence) match."""
        plan = self._plan(query)
        while True:
            target = self._first_match(plan)
            if target is None:
                return 0
            _seq, doc_id, shard = target
            self._maybe_checkpoint(shard)
            torn = self._wal_gate(shard)
            if shard.update_by_id(doc_id, update, plan, self._validator, torn):
                self._bump_version()
                obs.counter("store.updates").inc()
                return 1
            # Raced with a concurrent writer between scan and apply; rescan.

    def update_many(self, query: Dict[str, Any], update: Dict[str, Any]) -> int:
        """Apply *update* to every match; returns the count."""
        plan = self._plan(query)
        count = 0
        for shard in self._shards_for_plan(plan):
            self._maybe_checkpoint(shard)
            torn = self._wal_gate(shard)
            count += shard.update_matching(plan, update, self._validator, torn)
        if count:
            self._bump_version()
        obs.counter("store.updates").inc(count)
        return count

    def replace_one(
        self, query: Dict[str, Any], replacement: Dict[str, Any]
    ) -> int:
        """Replace the first match wholesale; returns 1 if replaced."""
        plan = self._plan(query)
        while True:
            target = self._first_match(plan)
            if target is None:
                return 0
            _seq, doc_id, shard = target
            self._maybe_checkpoint(shard)
            torn = self._wal_gate(shard)
            if shard.replace_by_id(
                doc_id, replacement, plan, self._validator, torn
            ):
                self._bump_version()
                return 1

    def delete_one(self, query: Dict[str, Any]) -> int:
        """Delete the first (lowest-sequence) match; returns 0 or 1."""
        plan = self._plan(query)
        while True:
            target = self._first_match(plan)
            if target is None:
                return 0
            _seq, doc_id, shard = target
            self._maybe_checkpoint(shard)
            torn = self._wal_gate(shard)
            if shard.delete_by_id(doc_id, plan, torn):
                self._bump_version()
                obs.counter("store.deletes").inc()
                return 1

    def delete_many(self, query: Dict[str, Any]) -> int:
        """Delete every match; returns the count."""
        plan = self._plan(query)
        count = 0
        for shard in self._shards_for_plan(plan):
            self._maybe_checkpoint(shard)
            torn = self._wal_gate(shard)
            count += shard.delete_matching(plan, torn)
        if count:
            self._bump_version()
        obs.counter("store.deletes").inc(count)
        return count

    def _first_match(
        self, plan: QueryPlan
    ) -> Optional[Tuple[int, Any, Shard]]:
        """The globally lowest-sequence match as ``(seq, doc_id, shard)``."""
        best: Optional[Tuple[int, Any, Shard]] = None
        for shard in self._shards_for_plan(plan):
            found = shard.first_match(plan)
            if found is not None and (best is None or found[0] < best[0]):
                best = (found[0], found[1], shard)
        return best

    # -- reads --------------------------------------------------------------

    def find(
        self,
        query: Optional[Dict[str, Any]] = None,
        projection: Optional[Dict[str, int]] = None,
    ) -> Cursor:
        """Query the collection; returns a chainable :class:`Cursor`."""
        frozen = dict(query or {})
        obs.counter("store.queries").inc()

        def producer() -> Iterable[Dict[str, Any]]:
            plan = self._plan(frozen)
            return [
                project(doc, projection) for _seq, doc in self._merged(plan)
            ]

        return Cursor(producer)

    def find_one(
        self,
        query: Optional[Dict[str, Any]] = None,
        projection: Optional[Dict[str, int]] = None,
    ) -> Optional[Dict[str, Any]]:
        """First matching document, or None."""
        for doc in self.find(query, projection).limit(1):
            return doc
        return None

    def count_documents(self, query: Optional[Dict[str, Any]] = None) -> int:
        """Count documents matching *query* (all when None)."""
        if not query:
            return len(self)
        plan = self._plan(query)
        return sum(
            shard.count_matching(plan) for shard in self._shards_for_plan(plan)
        )

    def distinct(
        self, field: str, query: Optional[Dict[str, Any]] = None
    ) -> List[Any]:
        """Distinct values of *field* across matching documents."""
        plan = self._plan(dict(query or {}))
        seen: List[Any] = []
        for _seq, doc in self._merged(plan):
            value = get_path(doc, field)
            if value is _MISSING:
                continue
            values = value if isinstance(value, list) else [value]
            for v in values:
                if v not in seen:
                    seen.append(v)
        return seen

    # -- indexes ------------------------------------------------------------

    def create_index(self, field: str) -> str:
        """Create (or refresh) a hash index on a dotted *field* path."""
        with self._lock:
            if field not in self._field_index_names:
                self._field_index_names = self._field_index_names + (field,)
        for shard in self._shards:
            shard.create_field_index(field)
        self._write_manifest()
        obs.counter("store.index_builds").inc()
        return field

    def drop_index(self, field: str) -> None:
        """Remove the index on *field* if present."""
        with self._lock:
            self._field_index_names = tuple(
                f for f in self._field_index_names if f != field
            )
        for shard in self._shards:
            shard.drop_field_index(field)
        self._write_manifest()

    def list_indexes(self) -> List[str]:
        """Names of the indexed fields."""
        with self._lock:
            return list(self._field_index_names)

    def create_text_index(self, *fields: str) -> Tuple[str, ...]:
        """Build an inverted index over *fields* to serve ``$text`` queries."""
        if not fields:
            raise QueryError("create_text_index requires at least one field")
        with self._lock:
            self._text_field_names = tuple(fields)
            self._text_indexed = True
        for shard in self._shards:
            shard.set_text_index(fields, indexed=True)
        self._write_manifest()
        obs.counter("store.index_builds").inc()
        return tuple(fields)

    def declare_text_fields(self, *fields: str) -> Tuple[str, ...]:
        """Declare ``$text`` fields WITHOUT an inverted index (scan mode).

        The reference path: queries tokenize every candidate document.
        Exists so the store benchmark (and the differential harness) can
        compare index-resolved against scan-resolved text search on the
        same engine.
        """
        if not fields:
            raise QueryError("declare_text_fields requires at least one field")
        with self._lock:
            self._text_field_names = tuple(fields)
            self._text_indexed = False
        for shard in self._shards:
            shard.set_text_index(fields, indexed=False)
        self._write_manifest()
        return tuple(fields)

    def text_fields(self) -> Tuple[str, ...]:
        """The declared ``$text`` fields (empty when none)."""
        with self._lock:
            return self._text_field_names

    # -- aggregation --------------------------------------------------------

    def aggregate(self, pipeline: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Run an aggregation pipeline (see :mod:`repro.store.aggregate`)."""
        obs.counter("store.aggregates").inc()
        docs = [doc for _seq, doc in self._merged(self._scan_plan())]
        return run_pipeline(docs, pipeline)

    # -- persistence --------------------------------------------------------

    def dump_jsonl(self, path: str) -> int:
        """Write every document as one JSON line; returns the count.

        Dirty-tracked: when nothing changed since the last dump to the
        same *path*, the file is left untouched (``store.dump.skipped``
        counts these; ``store.dump.written`` counts real writes).
        """
        key = os.path.abspath(path)
        with self._lock:
            version = self._version
            dumped = self._dumped.get(key)
        if dumped == version and os.path.exists(path):
            obs.counter("store.dump.skipped").inc()
            return len(self)
        lines = [
            json.dumps(doc, default=str)
            for _seq, doc in self._merged(self._scan_plan())
        ]
        with open(path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
        with self._lock:
            self._dumped[key] = version
        obs.counter("store.dump.written").inc()
        return len(lines)

    def load_jsonl(self, path: str) -> int:
        """Load documents from a JSONL file; returns the count inserted."""
        count = 0
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                self.insert_one(json.loads(line))
                count += 1
        return count
