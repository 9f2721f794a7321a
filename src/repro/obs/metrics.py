"""Metric primitives: :class:`Counter`, :class:`Gauge`, :class:`Histogram`.

These are deliberately minimal, dependency-free value holders.  They are
handed out by the :class:`repro.obs.Registry` (get-or-create by name) and
mutated from instrumented hot paths; a parallel set of no-op twins
(:data:`NULL_COUNTER` and friends) is returned when observability is
disabled so the instrumented call sites stay branch-free and cheap.

Threading: each mutation is a handful of attribute updates guarded by a
lock shared with the owning registry (declared via ``@guarded_by``, with
``@lock_alias`` filing the shared lock under the registry's canonical
name), so concurrent stages (e.g. a threaded benchmark harness) cannot
corrupt the totals.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from ..tools.annotations import guarded_by, lock_alias


@lock_alias("_lock", "Registry._lock")
@guarded_by("_lock", "value")
class Counter:
    """A monotonically increasing count (queries served, batches trained)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: Optional[threading.RLock] = None) -> None:
        self.name = name
        self.value = 0.0
        self._lock = lock or threading.RLock()

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (default 1) to the counter; must be non-negative."""
        if amount < 0:
            raise ValueError("Counter.inc amount must be non-negative")
        with self._lock:
            self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        with self._lock:
            return {"value": self.value}

    def __repr__(self) -> str:
        with self._lock:
            return f"Counter({self.name!r}, value={self.value})"


@lock_alias("_lock", "Registry._lock")
@guarded_by("_lock", "value")
class Gauge:
    """A point-in-time value that can move both ways (vocab size, queue depth)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: Optional[threading.RLock] = None) -> None:
        self.name = name
        self.value: Optional[float] = None
        self._lock = lock or threading.RLock()

    def set(self, value: float) -> None:
        """Record the current level."""
        with self._lock:
            self.value = float(value)

    def add(self, amount: float) -> None:
        """Shift the gauge by *amount* (unset gauges start from 0)."""
        with self._lock:
            self.value = (self.value or 0.0) + amount

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        with self._lock:
            return {"value": self.value}

    def __repr__(self) -> str:
        with self._lock:
            return f"Gauge({self.name!r}, value={self.value})"


@lock_alias("_lock", "Registry._lock")
@guarded_by("_lock", "count", "total", "min", "max", "series")
class Histogram:
    """A stream of observations with summary stats and a bounded series.

    Beyond count/sum/min/max/mean, the first ``max_samples`` raw values
    are retained in order so per-epoch traces (loss, accuracy, epoch
    milliseconds) survive into the exported snapshot; past the cap the
    summary stats keep updating and ``truncated`` flips to True.
    """

    __slots__ = ("name", "count", "total", "min", "max", "series", "max_samples", "_lock")

    def __init__(
        self,
        name: str,
        max_samples: int = 4096,
        lock: Optional[threading.RLock] = None,
    ) -> None:
        if max_samples < 0:
            raise ValueError("max_samples must be >= 0")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.series: List[float] = []
        self.max_samples = max_samples
        self._lock = lock or threading.RLock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            if len(self.series) < self.max_samples:
                self.series.append(value)

    @property
    def mean(self) -> Optional[float]:
        """Arithmetic mean of all observations, or None when empty."""
        with self._lock:
            return self.total / self.count if self.count else None

    @property
    def truncated(self) -> bool:
        """True when the raw series stopped growing at ``max_samples``."""
        with self._lock:
            return self.count > len(self.series)

    def percentile(self, q: float) -> Optional[float]:
        """The *q*-th percentile of the retained series (None when empty).

        Linear interpolation between order statistics, computed over the
        bounded raw series — past ``max_samples`` observations this is a
        prefix percentile, which ``truncated`` flags.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile q must lie in [0, 100]")
        with self._lock:
            values = sorted(self.series)
        if not values:
            return None
        if len(values) == 1:
            return values[0]
        position = (q / 100.0) * (len(values) - 1)
        lower = int(position)
        upper = min(lower + 1, len(values) - 1)
        weight = position - lower
        return values[lower] * (1.0 - weight) + values[upper] * weight

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (summary + bounded raw series)."""
        with self._lock:
            return {
                "count": self.count,
                "sum": self.total,
                "min": self.min,
                "max": self.max,
                "mean": self.mean,
                "series": list(self.series),
                "truncated": self.truncated,
            }

    def __repr__(self) -> str:
        with self._lock:
            return f"Histogram({self.name!r}, count={self.count}, mean={self.mean})"


class _NullCounter:
    """No-op :class:`Counter` twin returned while observability is off."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        """Discard the increment."""

    def to_dict(self) -> Dict[str, Any]:
        """Always empty."""
        return {"value": 0.0}


class _NullGauge:
    """No-op :class:`Gauge` twin returned while observability is off."""

    __slots__ = ()

    def set(self, value: float) -> None:
        """Discard the value."""

    def add(self, amount: float) -> None:
        """Discard the shift."""

    def to_dict(self) -> Dict[str, Any]:
        """Always empty."""
        return {"value": None}


class _NullHistogram:
    """No-op :class:`Histogram` twin returned while observability is off."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        """Discard the observation."""

    def percentile(self, q: float) -> Optional[float]:
        """Always None (no observations are retained)."""
        return None

    def to_dict(self) -> Dict[str, Any]:
        """Always empty."""
        return {"count": 0, "sum": 0.0, "min": None, "max": None,
                "mean": None, "series": [], "truncated": False}


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()
