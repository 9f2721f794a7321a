"""Per-shard write-ahead log: CRC-framed, append-only, atomically compacted.

Format — one frame per line::

    <crc32 of payload, 8 hex chars> <payload JSON, compact, sorted keys>\\n

The payload is a WAL record (see :mod:`repro.store.shard` for the record
schema); document values inside it are encoded with
:func:`repro.resilience.codecs.encode_json_value` so the replayed
documents are bitwise-equal to what was acknowledged, datetimes included.

Recovery semantics: :meth:`ShardWAL.replay` returns every record up to —
and not including — the first frame that fails to parse or checksum.  A
torn tail is the expected signature of a crash mid-``write`` and is
silently discarded (counted in ``store.wal.torn_records``); anything
*after* a torn frame is unreachable by construction, since appends are
strictly sequential.

Compaction rewrites the log with only the records newer than a
checkpoint's LSN watermark, using the same temp-file + ``os.replace``
discipline as :func:`repro.resilience.atomic.atomic_write`, so a
crash during compaction leaves either the old complete log or the new
complete log — never a hybrid.

Thread-safety: none of its own, by design.  A :class:`ShardWAL` is owned
by exactly one :class:`~repro.store.shard.Shard`, which serializes every
call under its shard lock; keeping the WAL lock-free keeps it out of the
lock-order graph entirely.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from typing import Any, Dict, List, Optional

from .errors import WALError


def _frame(record: Dict[str, Any]) -> bytes:
    payload = json.dumps(record, separators=(",", ":"), sort_keys=True)
    data = payload.encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(data), data)


def _parse_frame(line: bytes) -> Optional[Dict[str, Any]]:
    """Decode one frame; None when torn/corrupt."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    payload = line[9:]
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    if zlib.crc32(payload) != crc:
        return None
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return record if isinstance(record, dict) else None


class ShardWAL:
    """Append-only framed record log for one shard."""

    def __init__(self, path: str) -> None:
        self.path = path
        #: True when the most recent :meth:`replay` discarded a torn tail.
        #: The owning shard reads this to feed ``store.wal.torn_records``
        #: (all obs calls stay in the shard so the lock-order graph sees
        #: them; the WAL itself is lock- and metrics-free).
        self.torn_tail = False
        self._handle: Optional[Any] = None

    def _open(self) -> Any:
        if self._handle is None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._handle = open(self.path, "ab")
        return self._handle

    def append(self, record: Dict[str, Any]) -> None:
        """Append one record and flush it to the OS.

        The append is the durability point: a record present on return is
        recovered by :meth:`replay`; a crash mid-write leaves a torn tail
        that replay discards.
        """
        handle = self._open()
        handle.write(_frame(record))
        handle.flush()

    def append_torn(self, record: Dict[str, Any]) -> None:
        """Write a deliberately half-written frame (crash simulation).

        Used by the fault-injection kill point ``store.wal.torn.*`` to
        model a process dying mid-``write``: the prefix of the frame
        reaches the file, the record must NOT survive recovery.
        """
        frame = _frame(record)
        handle = self._open()
        handle.write(frame[: max(1, len(frame) // 2)])
        handle.flush()

    def replay(self) -> List[Dict[str, Any]]:
        """All intact records, in append order, stopping at the first tear."""
        self.torn_tail = False
        if not os.path.exists(self.path):
            return []
        with open(self.path, "rb") as handle:
            data = handle.read()
        records: List[Dict[str, Any]] = []
        for line in data.split(b"\n"):
            if not line:
                continue
            record = _parse_frame(line)
            if record is None:
                self.torn_tail = True
                break
            records.append(record)
        return records

    def rewrite(self, records: List[Dict[str, Any]]) -> None:
        """Atomically replace the log's contents with *records*."""
        self.close()
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".wal-")
        try:
            with os.fdopen(fd, "wb") as handle:
                for record in records:
                    handle.write(_frame(record))
                handle.flush()
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def compact(self, keep_after_lsn: int) -> int:
        """Drop records with ``lsn <= keep_after_lsn``; returns kept count.

        Called after a checkpoint lands: everything at or below the
        checkpoint's LSN watermark is redundant with the checkpoint file.
        """
        records = self.replay()
        kept = [r for r in records if int(r.get("lsn", 0)) > keep_after_lsn]
        self.rewrite(kept)
        return len(kept)

    def size_bytes(self) -> int:
        """Current on-disk size (0 when the log does not exist yet)."""
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def close(self) -> None:
        """Close the append handle (reopened lazily on the next append)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


__all__ = ["ShardWAL", "WALError"]
