"""Versioned stage-checkpoint store for the pipeline and deployment loop.

§4.9: after each two-hour dataset refresh the algorithms re-run "from
checkpoints or from scratch".  :class:`CheckpointStore` is the
"from checkpoints" half — after every pipeline stage its output is
serialized (via :mod:`repro.resilience.codecs`) under a run directory::

    <root>/
        manifest.json          # version, fingerprint, completed stages
        stages/<stage>.json    # JSON-able part of the stage output
        stages/<stage>.npz     # numeric arrays (only when present)

Staleness is handled by **content fingerprinting**: the manifest records
:func:`~repro.resilience.atomic.config_fingerprint`, a SHA-256 over the
serialized :class:`~repro.core.config.PipelineConfig` (result-neutral
knobs such as ``workers`` and the retry settings are excluded), the
store format version, and an optional *world key* (corpus sizes and
time range).  Opening a store whose manifest fingerprint differs
invalidates every stored stage, so a resumed run can never mix outputs
computed under different parameters.

Writes are atomic (:func:`~repro.resilience.atomic.atomic_write`: temp
file + ``os.replace``) and the manifest is rewritten after every stage,
so a run killed mid-stage leaves only completed stages behind — exactly
what resume wants.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, List, Optional

import numpy as np

from .. import obs
from .atomic import CHECKPOINT_VERSION, atomic_write, config_fingerprint
from .codecs import decode_stage, encode_stage


class CheckpointError(RuntimeError):
    """Raised for missing stages or corrupt checkpoint directories."""


class CheckpointStore:
    """One run directory of stage checkpoints, fingerprint-validated."""

    def __init__(
        self,
        root: str,
        config: Optional[Any] = None,
        world_key: Optional[str] = None,
    ) -> None:
        self.root = root
        self.fingerprint = (
            config_fingerprint(config, world_key) if config is not None else None
        )
        self._stage_dir = os.path.join(root, "stages")
        os.makedirs(self._stage_dir, exist_ok=True)
        self._manifest = self._load_manifest()
        if self._is_stale():
            self.invalidate()

    # -- manifest -----------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        """Path of the manifest JSON file."""
        return os.path.join(self.root, "manifest.json")

    def _load_manifest(self) -> Dict[str, Any]:
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            return self._fresh_manifest()
        except (json.JSONDecodeError, OSError):
            # A torn manifest (killed mid-write before the atomic rename
            # existed, disk corruption) means the directory cannot be
            # trusted; start over.
            return self._fresh_manifest()
        if not isinstance(manifest, dict) or "stages" not in manifest:
            return self._fresh_manifest()
        return manifest

    def _fresh_manifest(self) -> Dict[str, Any]:
        return {
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint,
            "stages": {},
            "order": [],
        }

    def _is_stale(self) -> bool:
        has_stages = bool(self._manifest.get("stages"))
        if self._manifest.get("version") != CHECKPOINT_VERSION:
            return has_stages
        if self.fingerprint is None:
            return False
        return self._manifest.get("fingerprint") != self.fingerprint and has_stages

    def _save_manifest(self) -> None:
        self._manifest["fingerprint"] = self.fingerprint
        self._manifest["version"] = CHECKPOINT_VERSION
        atomic_write(
            self.manifest_path,
            (json.dumps(self._manifest, indent=2) + "\n").encode("utf-8"),
        )

    # -- stage I/O ----------------------------------------------------------

    def _paths(self, stage: str) -> Dict[str, str]:
        return {
            "meta": os.path.join(self._stage_dir, f"{stage}.json"),
            "arrays": os.path.join(self._stage_dir, f"{stage}.npz"),
        }

    def has(self, stage: str) -> bool:
        """True when *stage* is recorded complete and its files exist."""
        entry = self._manifest["stages"].get(stage)
        if entry is None:
            return False
        paths = self._paths(stage)
        if not os.path.exists(paths["meta"]):
            return False
        if entry.get("has_arrays") and not os.path.exists(paths["arrays"]):
            return False
        return True

    def completed(self) -> List[str]:
        """Stage names in completion order."""
        return [s for s in self._manifest.get("order", []) if self.has(s)]

    def save(self, stage: str, value: Any) -> str:
        """Checkpoint one stage output; returns the meta-file path."""
        meta, arrays = encode_stage(stage, value)
        paths = self._paths(stage)
        payload = json.dumps({"stage": stage, "meta": meta}).encode("utf-8")
        atomic_write(paths["meta"], payload)
        if arrays:
            fd, tmp = tempfile.mkstemp(dir=self._stage_dir, prefix=".ckpt-")
            os.close(fd)
            try:
                with open(tmp, "wb") as handle:
                    np.savez(handle, **arrays)
                os.replace(tmp, paths["arrays"])
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        elif os.path.exists(paths["arrays"]):
            os.unlink(paths["arrays"])
        self._manifest["stages"][stage] = {"has_arrays": bool(arrays)}
        order = self._manifest.setdefault("order", [])
        if stage in order:
            order.remove(stage)
        order.append(stage)
        self._save_manifest()
        obs.counter("resilience.checkpoint.saved").inc()
        return paths["meta"]

    def load(self, stage: str) -> Any:
        """Rebuild one stage output from disk."""
        if not self.has(stage):
            raise CheckpointError(f"no checkpoint for stage {stage!r} in {self.root}")
        paths = self._paths(stage)
        with open(paths["meta"], "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("stage") != stage:
            raise CheckpointError(
                f"checkpoint file {paths['meta']} belongs to stage "
                f"{payload.get('stage')!r}, expected {stage!r}"
            )
        arrays: Dict[str, np.ndarray] = {}
        if self._manifest["stages"][stage].get("has_arrays"):
            with np.load(paths["arrays"]) as data:
                arrays = {name: data[name] for name in data.files}
        obs.counter("resilience.checkpoint.loaded").inc()
        return decode_stage(stage, payload["meta"], arrays)

    def invalidate(self) -> None:
        """Drop every stored stage (stale fingerprint or explicit reset)."""
        for name in os.listdir(self._stage_dir):
            os.unlink(os.path.join(self._stage_dir, name))
        self._manifest = self._fresh_manifest()
        self._save_manifest()
        obs.counter("resilience.checkpoint.invalidated").inc()
