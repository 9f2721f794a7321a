"""Span tracing: nested wall/CPU timing as a context manager.

A :class:`Span` measures one named unit of work.  Spans nest: entering a
span while another is active on the same thread attaches it as a child,
so a full pipeline run yields a tree whose leaves are the real hot loops
(NMF iterations, MABED selection, per-network training).  The tree is
owned by the :class:`repro.obs.Registry` that created the span.

When observability is disabled the module-level :func:`repro.obs.span`
helper returns :data:`NULL_SPAN` — a shared, stateless object whose
``__enter__``/``__exit__`` do nothing — so instrumented code pays one
env lookup and two no-op calls, nothing more.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List, Optional

try:
    import resource
except ImportError:  # not a Unix: no getrusage, no peak-memory attribution
    resource = None  # type: ignore[assignment]

#: ``ru_maxrss`` units per MB: kilobytes on Linux, bytes on macOS.
_MAXRSS_PER_MB = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0


def _maxrss() -> int:
    """The process's resident-set high-water mark, in ``ru_maxrss`` units."""
    if resource is None:
        return 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Span:
    """One timed unit of work; use as a context manager.

    Attributes are filled at exit: ``wall_s`` (``time.perf_counter``
    delta), ``cpu_s`` (``time.process_time`` delta) and
    ``peak_rss_growth_mb``, how far the process's peak resident memory
    (``getrusage`` ``ru_maxrss``) rose while the span was open — 0 when
    the span stayed under an earlier high-water mark, so the span that
    sets a process's peak memory is the one with the growth.  ``start_s`` is
    the wall-clock offset from the owning registry's creation, giving a
    deterministic-friendly ordering key without touching ``time.time``.
    ``meta`` holds arbitrary JSON-able annotations added via
    :meth:`annotate` (document counts, vocabulary sizes, ...).
    """

    __slots__ = (
        "name",
        "children",
        "meta",
        "wall_s",
        "cpu_s",
        "start_s",
        "peak_rss_growth_mb",
        "_registry",
        "_wall0",
        "_cpu0",
        "_maxrss0",
        "_entered",
    )

    def __init__(self, name: str, registry: Any) -> None:
        self.name = name
        self.children: List["Span"] = []
        self.meta: Dict[str, Any] = {}
        self.wall_s: Optional[float] = None
        self.cpu_s: Optional[float] = None
        self.start_s: Optional[float] = None
        self.peak_rss_growth_mb: Optional[float] = None
        self._registry = registry
        self._wall0 = 0.0
        self._cpu0 = 0.0
        self._maxrss0 = 0
        self._entered = False

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "Span":
        if self._entered:
            raise RuntimeError(f"span {self.name!r} entered twice")
        self._entered = True
        self._registry._attach(self)
        self.start_s = time.perf_counter() - self._registry._epoch
        self._maxrss0 = _maxrss()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_s = time.perf_counter() - self._wall0
        self.cpu_s = time.process_time() - self._cpu0
        self.peak_rss_growth_mb = (_maxrss() - self._maxrss0) / _MAXRSS_PER_MB
        self._registry._detach(self)
        if exc_type is not None:
            self.meta.setdefault("error", exc_type.__name__)

    # -- annotations --------------------------------------------------------

    def annotate(self, **values: Any) -> "Span":
        """Attach JSON-able metadata to the span; returns self."""
        self.meta.update(values)
        return self

    # -- export -------------------------------------------------------------

    @property
    def self_wall_s(self) -> Optional[float]:
        """Wall time not attributed to any child span."""
        if self.wall_s is None:
            return None
        attributed = sum(c.wall_s or 0.0 for c in self.children)
        return max(0.0, self.wall_s - attributed)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation of this span and its subtree."""
        out: Dict[str, Any] = {
            "name": self.name,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "start_s": self.start_s,
            "peak_rss_growth_mb": self.peak_rss_growth_mb,
        }
        if self.meta:
            out["meta"] = dict(self.meta)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def __repr__(self) -> str:
        timing = f"{self.wall_s:.4f}s" if self.wall_s is not None else "open"
        return f"Span({self.name!r}, {timing}, children={len(self.children)})"


class _NullSpan:
    """Shared no-op span used whenever observability is disabled.

    Supports the full :class:`Span` surface (context manager, annotate,
    export) but records nothing and allocates nothing per use.
    """

    __slots__ = ()

    name = ""
    children: List[Any] = []
    meta: Dict[str, Any] = {}
    wall_s: Optional[float] = None
    cpu_s: Optional[float] = None
    start_s: Optional[float] = None
    peak_rss_growth_mb: Optional[float] = None
    self_wall_s: Optional[float] = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def annotate(self, **values: Any) -> "_NullSpan":
        """Discard the metadata; returns self."""
        return self

    def to_dict(self) -> Dict[str, Any]:
        """Always empty."""
        return {}


NULL_SPAN = _NullSpan()
