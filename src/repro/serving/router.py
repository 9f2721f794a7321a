"""Replica router: pluggable policies, health tracking, probe/re-admission.

The router owns the *which replica serves this request* decision for a
:class:`~repro.serving.fleet.FleetService`:

* **policies** — ``round_robin`` (strict rotation over the healthy set)
  and ``least_loaded`` (minimum queue depth, ties to the lowest replica
  index).  Both are deterministic functions of the routing history and
  the observed queue depths, so tests can pin exact assignments;
* **ejection** — a replica that fails ``eject_after`` consecutive
  batches takes itself out of rotation (see
  :meth:`repro.serving.fleet.Replica.note_batch_outcome`); the router
  simply stops selecting it;
* **re-admission** — after every ``probe_after`` routed requests, the
  router sends one synthetic probe through an ejected replica's full
  scheduler path; a healthy answer re-admits it.  A request refused
  because every replica is ejected spends the budget too, so a dead
  pool probes its way back.  Counted, not timed, so
  ejection/re-admission sequences are reproducible in tests.

Counters: ``serving.fleet.router.routed`` / ``.ejections`` /
``.readmissions`` / ``.probes``.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence

from .. import obs
from ..tools.annotations import guarded_by
from .errors import ModelUnavailable

#: policy(healthy_indices, queue_depths, rotation) -> chosen replica index.
#: ``rotation`` is the router's monotonically increasing pick counter.
PolicyFn = Callable[[Sequence[int], Sequence[int], int], int]


def round_robin(healthy: Sequence[int], depths: Sequence[int], rotation: int) -> int:
    """Strict rotation across the healthy replicas."""
    return healthy[rotation % len(healthy)]


def least_loaded(healthy: Sequence[int], depths: Sequence[int], rotation: int) -> int:
    """Minimum queue depth; ties break to the lowest replica index."""
    best = healthy[0]
    best_depth = depths[0]
    for index, depth in zip(healthy[1:], depths[1:]):
        if depth < best_depth:
            best, best_depth = index, depth
    return best


#: Name -> policy function, the registry behind ``--router``.
POLICIES: Dict[str, PolicyFn] = {
    "round_robin": round_robin,
    "least_loaded": least_loaded,
}


@guarded_by(
    "_lock",
    "_rotation",
    "_routed",
    "_dead_routes",
    "_probe_marks",
    "_probing",
    "routed_per_replica",
)
class Router:
    """Routes requests across a replica pool, probing ejected members."""

    def __init__(
        self,
        replicas: Sequence,
        policy: str = "least_loaded",
        probe_after: int = 8,
    ) -> None:
        if not replicas:
            raise ValueError("router needs at least one replica")
        if policy not in POLICIES:
            raise ValueError(
                f"unknown router policy {policy!r}; expected one of "
                f"{sorted(POLICIES)}"
            )
        if probe_after < 1:
            raise ValueError("probe_after must be >= 1")
        self.replicas = list(replicas)
        self.policy_name = policy
        self._policy = POLICIES[policy]
        self.probe_after = probe_after
        self._lock = threading.Lock()
        self._rotation = 0
        self._routed = 0
        #: route() calls that found every replica ejected.
        self._dead_routes = 0
        #: replica index -> probe clock at its last eject/probe event.
        self._probe_marks: Dict[int, int] = {}
        #: replica indices with an in-flight probe (never probe twice).
        self._probing: set = set()
        self.routed_per_replica = [0 for _ in replicas]

    # -- selection -----------------------------------------------------------

    def route(self):
        """Pick the replica for one request (may probe an ejected one).

        Raises :class:`ModelUnavailable` when every replica is ejected
        and no due probe re-admits one — the caller should surface 503
        rather than queueing into a dead pool.  Probing happens outside
        the router lock: the probe is a real request through the ejected
        replica's scheduler.
        """
        # Health and depth are snapshotted *outside* the router lock:
        # they are advisory (a replica can eject the instant after we
        # look), and reading them under our lock would nest
        # Router._lock over Replica._lock / BatchScheduler._cond for
        # no consistency gain.
        healthy = [r.index for r in self.replicas if r.available()]
        if not healthy:
            self._probe_dead_pool()
            healthy = [r.index for r in self.replicas if r.available()]
        if not healthy:
            obs.counter("serving.fleet.router.no_replicas").inc()
            raise ModelUnavailable(
                "all replicas are ejected; the fleet cannot serve"
            )
        depths = [self.replicas[i].queue_depth for i in healthy]
        ejected = [r for r in self.replicas if r.index not in set(healthy)]
        with self._lock:
            chosen = self._policy(healthy, depths, self._rotation)
            self._rotation += 1
            self._routed += 1
            self.routed_per_replica[chosen] += 1
            probe_target = self._due_probe_locked(ejected)
        obs.counter("serving.fleet.router.routed").inc()
        if probe_target is not None:
            self._probe(probe_target)
        return self.replicas[chosen]

    def _probe_dead_pool(self) -> None:
        """Spend one request of probe budget on a pool with no replica in
        rotation.  Probes otherwise ride on routed requests, and a dead
        pool routes none, so without this it would never recover."""
        with self._lock:
            self._dead_routes += 1
            probe_target = self._due_probe_locked(self.replicas)
        if probe_target is not None:
            self._probe(probe_target)

    def _due_probe_locked(self, ejected):
        # Caller holds self._lock; *ejected* was snapshotted outside it.
        # At most one ejected replica is selected per route() call, and
        # only when its probe budget (probe_after requests since the
        # last attempt, routed or refused by a dead pool) is spent.
        clock = self._routed + self._dead_routes
        for replica in ejected:
            if replica.index in self._probing:
                continue
            mark = self._probe_marks.get(replica.index)
            if mark is None:
                # First time we see it ejected: start its budget now.
                self._probe_marks[replica.index] = clock
                obs.counter("serving.fleet.router.ejections").inc()
                continue
            if clock - mark >= self.probe_after:
                self._probe_marks[replica.index] = clock
                self._probing.add(replica.index)
                return replica
        return None

    def _probe(self, replica) -> None:
        """Health-check *replica* end to end; re-admit on success."""
        obs.counter("serving.fleet.router.probes").inc()
        try:
            healthy = replica.probe()
        finally:
            with self._lock:
                self._probing.discard(replica.index)
        if healthy:
            with self._lock:
                self._probe_marks.pop(replica.index, None)
            obs.counter("serving.fleet.router.readmissions").inc()

    # -- introspection -------------------------------------------------------

    def healthy_indices(self) -> List[int]:
        """Indices of replicas currently in rotation."""
        return [r.index for r in self.replicas if r.available()]

    def min_queue_depth(self) -> Optional[int]:
        """Smallest healthy-replica queue depth (None when pool is dead).

        This is the depth the admission controller's wait estimate uses:
        under ``least_loaded`` routing it is exactly the queue the next
        admitted request would join.
        """
        depths = [r.queue_depth for r in self.replicas if r.available()]
        return min(depths) if depths else None

    def stats(self) -> Dict[str, object]:
        """Router counters and per-replica health for ``/metrics``."""
        with self._lock:
            routed = self._routed
            per_replica = list(self.routed_per_replica)
        return {
            "policy": self.policy_name,
            "routed": routed,
            "routed_per_replica": per_replica,
            "healthy": self.healthy_indices(),
            "replicas": [r.describe() for r in self.replicas],
        }
