"""Admission control: one queue rule, checked before a request is queued.

The fleet sheds a request with a typed
:class:`~repro.serving.errors.AdmissionRejected` (HTTP 429) when the
least-loaded replica's queue has reached :data:`SHED_FRACTION` of its
capacity — failing in microseconds instead of queueing work behind a
backlog.  The scheduler's own bounded queue (``QueueFull``) and
per-request deadline drop (``DeadlineExceeded``) stay the last lines of
defence.

Every decision increments a ``serving.fleet.admission.*`` counter.  The
autoscaling simulation in ``benchmarks/fleet_bench.py`` drives this very
class, so its committed baseline pins the rule's decisions.
"""

from __future__ import annotations

import threading
from typing import Dict

from .. import obs
from ..tools.annotations import guarded_by
from .errors import AdmissionRejected

#: Queue-occupancy fraction at which new requests are shed.
SHED_FRACTION = 0.85


@guarded_by("_lock", "admitted", "shed")
class AdmissionController:
    """Decides, per request, whether the fleet should accept the work."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.admitted = 0
        self.shed = 0

    def admit(self, queue_depth: int, queue_capacity: int) -> None:
        """Admit one request, or raise :class:`AdmissionRejected`.

        *queue_depth* is the shallowest healthy replica queue — the one
        the request would join — and *queue_capacity* its bound.
        """
        if queue_depth >= SHED_FRACTION * queue_capacity:
            with self._lock:
                self.shed += 1
            obs.counter("serving.fleet.admission.shed").inc()
            raise AdmissionRejected(
                f"queue at {queue_depth}/{queue_capacity} reached the "
                f"{SHED_FRACTION:.0%} shed threshold; retry with backoff"
            )
        with self._lock:
            self.admitted += 1
        obs.counter("serving.fleet.admission.admitted").inc()

    def stats(self) -> Dict[str, int]:
        """Admission counters for ``/metrics`` (one consistent snapshot)."""
        with self._lock:
            return {"admitted": self.admitted, "shed": self.shed}
