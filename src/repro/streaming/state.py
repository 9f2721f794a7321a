"""Crash-safe persistence of streaming pipeline state.

The durable source of truth is always the store's WAL — the streaming
state checkpoint is an *optimization* that lets a reopened pipeline
skip re-preprocessing the backlog.  Consistency model:

* the checkpoint records, per collection, the last document ``_id``
  folded into the derived state, and it is only written **after** those
  documents were acknowledged by the store — so the state can lag the
  store but never lead it;
* on open, a valid checkpoint is loaded and the gap is folded from the
  store with ``find({"_id": {"$gt": last_id}})``; a missing, torn, or
  fingerprint-stale checkpoint simply means folding from document one.

Atomicity uses the classic directory-flip: a whole state bundle is
written under a fresh ``state-NNNNNN/`` directory, then the ``CURRENT``
pointer file is atomically replaced.  A crash before the flip leaves
the previous complete bundle current; a crash after it leaves the new
one — a half-written bundle is never observed.  Fault sites
``streaming.checkpoint.write`` (before the bundle write) and
``streaming.checkpoint.flip`` (before the pointer flip) let the
recovery harness kill at both edges.

Corpus payloads reuse the ``repro.resilience.codecs`` stage codecs
(token docs, timestamped docs, tweet records), so the on-disk format is
shared with pipeline checkpoints.
"""

from __future__ import annotations

import io
import json
import os
import shutil
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .. import obs
from ..resilience import faults
from ..resilience.atomic import atomic_write, config_fingerprint
from ..resilience.codecs import decode_stage, encode_stage

STATE_VERSION = 1
_CURRENT = "CURRENT"

Bundle = Tuple[Dict[str, Any], Dict[str, Any], Dict[str, np.ndarray]]


class StreamingStateStore:
    """Directory-flip checkpoint store for one streaming pipeline."""

    def __init__(self, root: str, config: Any, key: str = "") -> None:
        self.root = root
        self._fingerprint = config_fingerprint(
            config, world_key=f"streaming:{key}"
        )
        os.makedirs(root, exist_ok=True)

    # -- helpers -----------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """Config fingerprint a checkpoint must match to be restored."""
        return self._fingerprint

    def _current_dir(self) -> Optional[str]:
        try:
            with open(
                os.path.join(self.root, _CURRENT), "r", encoding="utf-8"
            ) as handle:
                pointer = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        name = pointer.get("dir")
        if not isinstance(name, str):
            return None
        path = os.path.join(self.root, name)
        return path if os.path.isdir(path) else None

    def _next_dir(self) -> str:
        existing = [
            name
            for name in os.listdir(self.root)
            if name.startswith("state-")
        ]
        seq = 0
        for name in existing:
            try:
                seq = max(seq, int(name.split("-", 1)[1]) + 1)
            except ValueError:
                continue
        return os.path.join(self.root, f"state-{seq:06d}")

    # -- save / load -------------------------------------------------------

    def save(
        self,
        manifest: Dict[str, Any],
        stages: Dict[str, Any],
        arrays: Dict[str, np.ndarray],
    ) -> str:
        """Persist one complete bundle; returns the bundle directory.

        *manifest* must be JSON-able; *stages* maps codec stage names to
        their values; *arrays* holds extra raw arrays (model weights).
        """
        faults.inject("streaming.checkpoint.write")
        bundle_dir = self._next_dir()
        os.makedirs(bundle_dir, exist_ok=True)
        stage_index: Dict[str, bool] = {}
        for stage, value in stages.items():
            meta, stage_arrays = encode_stage(stage, value)
            atomic_write(
                os.path.join(bundle_dir, f"{stage}.json"),
                json.dumps({"stage": stage, "meta": meta}).encode("utf-8"),
            )
            if stage_arrays:
                buffer = io.BytesIO()
                np.savez(buffer, **stage_arrays)
                atomic_write(
                    os.path.join(bundle_dir, f"{stage}.npz"),
                    buffer.getvalue(),
                )
            stage_index[stage] = bool(stage_arrays)
        if arrays:
            buffer = io.BytesIO()
            np.savez(buffer, **arrays)
            atomic_write(os.path.join(bundle_dir, "arrays.npz"), buffer.getvalue())
        payload = {
            "version": STATE_VERSION,
            "fingerprint": self._fingerprint,
            "manifest": manifest,
            "stages": stage_index,
            "has_arrays": bool(arrays),
        }
        atomic_write(
            os.path.join(bundle_dir, "manifest.json"),
            (json.dumps(payload, indent=2) + "\n").encode("utf-8"),
        )
        faults.inject("streaming.checkpoint.flip")
        previous = self._current_dir()
        atomic_write(
            os.path.join(self.root, _CURRENT),
            json.dumps({"dir": os.path.basename(bundle_dir)}).encode("utf-8"),
        )
        if previous is not None and previous != bundle_dir:
            shutil.rmtree(previous, ignore_errors=True)
        obs.counter("streaming.checkpoint.saved").inc()
        return bundle_dir

    def load(self) -> Optional[Bundle]:
        """The current ``(manifest, stages, arrays)``, or None.

        Any inconsistency — missing pointer, torn bundle, version or
        fingerprint mismatch — returns None: the caller rebuilds from
        the store, which is always safe.
        """
        bundle_dir = self._current_dir()
        if bundle_dir is None:
            return None
        try:
            with open(
                os.path.join(bundle_dir, "manifest.json"), "r", encoding="utf-8"
            ) as handle:
                payload = json.load(handle)
            if payload.get("version") != STATE_VERSION:
                return None
            if payload.get("fingerprint") != self._fingerprint:
                obs.counter("streaming.checkpoint.stale").inc()
                return None
            stages: Dict[str, Any] = {}
            for stage, has_arrays in payload.get("stages", {}).items():
                with open(
                    os.path.join(bundle_dir, f"{stage}.json"),
                    "r",
                    encoding="utf-8",
                ) as handle:
                    stage_payload = json.load(handle)
                stage_arrays: Dict[str, np.ndarray] = {}
                if has_arrays:
                    with np.load(
                        os.path.join(bundle_dir, f"{stage}.npz")
                    ) as data:
                        stage_arrays = {name: data[name] for name in data.files}
                stages[stage] = decode_stage(
                    stage, stage_payload["meta"], stage_arrays
                )
            arrays: Dict[str, np.ndarray] = {}
            if payload.get("has_arrays"):
                with np.load(os.path.join(bundle_dir, "arrays.npz")) as data:
                    arrays = {name: data[name] for name in data.files}
        except (OSError, KeyError, ValueError, json.JSONDecodeError):
            obs.counter("streaming.checkpoint.torn").inc()
            return None
        obs.counter("streaming.checkpoint.loaded").inc()
        return payload["manifest"], stages, arrays
