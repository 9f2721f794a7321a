"""The workloads: the §4.9 refresh loop, and serving on its own.

Both begin with one **cold start**: append the 70% backlog into a fresh
store, one ``cycle()``, cold-train ``MLP 1``, export; the clock stops
when a ``ModelRegistry`` has loaded the artifact.  Then come a few
**blocks**, then a ladder.  Each block starts the server afresh on the
live artifact (``python -m repro serve --replicas 2``, timed until
``/healthz`` reports the artifact, several times over) and runs rounds
of open-loop ``/predict`` windows at the nominal rate:

- ``refresh`` - each round is one **refresh step** (append the next two
  hours of world time, ``cycle()``, warm-start ``MLP 1``, export,
  ``POST /swap``; the clock stops when ``/healthz`` reports the new
  fingerprint), then a short window served by the new model.
- ``serve`` - one refresh step in the first block builds a second
  artifact; from then on the pipeline does nothing.  Every round is a
  long window with a ``/swap`` to the other artifact halfway, so the
  server swaps between the two every window.

After the last block, open-loop probes on a geometric rate ladder find
the highest rate that keeps p95 within the limit.

A shared two-core VM changes speed by up to 40% for tens of seconds at
a time, so every kind of sample is spread over the whole run: a slow
spell moves one sample of each, not a whole metric.  Step counts are
fixed by the plan, never by the clock, so the models and events a run
scores depend on the seed alone.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.analysis.burst_recovery import score_burst_recovery
from repro.serving import ModelRegistry

import inputs as gen
from deploy import SERVE_BATCH, Artifact, Deployment, Step
from server import (
    CheckFailed,
    Connection,
    PhaseResult,
    ServerProcess,
    Swap,
    drive,
    nearest_rank,
    swap,
    wait_healthy,
)

#: Open-loop rate (req/s) at which serving latency is reported.
NOMINAL_RPS = 100.0
#: p95 latency limit (ms) a ladder rate must meet.
P95_LIMIT_MS = 25.0
#: Mean lateness growth (ms) between a probe's halves that marks a
#: backlog the generator cannot work off.
LATE_GROWTH_MS = 5.0
#: Geometric ladder step between probed rates.
LADDER_STEP = 1.1
#: Seconds per ladder probe.
PROBE_S = 1.0
#: Bisections of the last ladder step: a resolution of about 2.4%.
BISECTIONS = 2
#: Server starts per block; ``setup_s`` is the median over all of them.
STARTS = 3


#: Fraction of world time the first cold start folds.
BACKLOG = 0.7


@dataclass(frozen=True)
class Plan:
    """How one workload divides a run between the phases."""

    #: Blocks run, each starting the server afresh.
    blocks: int
    #: Serving windows per block.
    rounds: int
    #: Seconds of open-loop traffic per window.
    window_s: float
    #: Whether each window follows a refresh step (``refresh``) or swaps
    #: between two fixed artifacts (``serve``).
    refresh: bool


def plan(name: str, seconds: float) -> Plan:
    """The plan of workload *name*; ``--seconds`` sizes its own phase."""
    if name == "refresh":
        return Plan(blocks=3, rounds=max(1, round(0.3 * seconds)), window_s=1.0, refresh=True)
    if name == "serve":
        return Plan(blocks=3, rounds=4, window_s=max(1.0, 0.2 * seconds), refresh=False)
    raise ValueError(f"unknown workload {name!r}")


#: End-to-end metrics, gated by a bound in ``BENCHMARK.json``.
END_TO_END = {
    "setup_s": "s",
    "pipeline_peak_rss_mb": "MB",
    "server_peak_rss_mb": "MB",
    "serve_p50_ms": "ms",
    "serve_p95_ms": "ms",
    "serve_max_rps": "req/s",
    "val_accuracy": "ratio",
}
#: End-to-end pipeline timings reported without a bound: they follow the
#: machine's speed, whose swings between runs exceed any bound a gate
#: could hold (``README.md``).  The traced run reports them too.
UNGATED = {
    "backfill_docs_per_s": "docs/s",
    "refresh_p50_s": "s",
}


class Run:
    """State and measurements of one workload run."""

    def __init__(self, name: str, data: gen.Inputs, seconds: float, root: str,
                 workdir: str) -> None:
        self.name = name
        self.plan = plan(name, seconds)
        self.data = data
        self.root = root
        self.workdir = workdir
        self.deployment: Optional[Deployment] = None
        self.server: Optional[ServerProcess] = None
        self.live: Optional[Artifact] = None
        self.bodies = [json.dumps(body).encode("utf-8") for body in data.pool]
        self.attempted = 0
        self.failed = 0
        self.backfills: List[Tuple[Step, float]] = []  # step, wall_s
        self.refreshes: List[Tuple[Step, float, float]] = []  # step, swap_s, wall_s
        self.artifacts: List[Artifact] = []
        self.setup_s: List[float] = []
        self.server_rss_mb = 0.0
        self.windows: List[PhaseResult] = []
        self.batch_ms: List[float] = []
        self.serve_counts: List[Dict[str, Any]] = []
        self.max_rps = 0.0
        self.last_cutoff = data.start + (data.end - data.start) * BACKLOG

    # -- phases ------------------------------------------------------------------

    def cold_start(self) -> None:
        """Fold the backlog into a fresh store, train, export."""
        data, cutoff = self.data, self.last_cutoff
        news = data.news[:gen.split_at(data.news, cutoff)]
        tweets = data.tweets[:gen.split_at(data.tweets, cutoff)]
        dep = self.deployment = Deployment(os.path.join(self.workdir, "deployment"))
        step = Step()
        with obs.span("perfbench.backfill"):
            started = time.perf_counter()
            dep.append(news, tweets, step)
            result = dep.cycle(step)
            model = dep.fit(result, step)
            artifact = dep.export(result, model, step)
            ModelRegistry().load(artifact.path)
            elapsed = time.perf_counter() - started
        self.attempted += step.docs + 1
        self.backfills.append((step, elapsed))
        self.artifacts.append(artifact)
        self.live = artifact

    def set_up(self, artifact: Artifact) -> Connection:
        """Replace the server with one started on *artifact*, :data:`STARTS`
        times over; the last start stays up."""
        for _ in range(STARTS):
            self.stop_server()
            started = time.perf_counter()
            self.server = ServerProcess(self.root, artifact.path, SERVE_BATCH).start()
            conn = self.server.connect()
            wait_healthy(conn, artifact.fingerprint)
            self.setup_s.append(time.perf_counter() - started)
            self.check_probe(conn, artifact)
        self.live = artifact
        return conn

    def check_probe(self, conn: Connection, artifact: Artifact) -> None:
        status, body = conn.call("POST", "/predict", artifact.probe)
        if status != 200 or body.get("fingerprint") != artifact.fingerprint:
            raise CheckFailed(f"probe answered {status}: {body}")
        if body["probabilities"] != artifact.expected:
            raise CheckFailed(
                f"probe served {body['probabilities']} but the exported model "
                f"predicts {artifact.expected}"
            )

    def deltas(self) -> Iterator[Tuple[list, list]]:
        """The world's two-hour deltas after the cutoff, empty ones skipped."""
        for after, until in gen.two_hour_steps(self.last_cutoff, self.data.end):
            news = gen.window(self.data.news, after, until)
            tweets = gen.window(self.data.tweets, after, until)
            if news or tweets:
                self.last_cutoff = until
                yield news, tweets

    def refresh_step(self, conn: Connection, deltas: Iterator[Tuple[list, list]]) -> None:
        """Fold the next delta, warm-start, export, and swap the result live."""
        assert self.deployment is not None
        delta = next(deltas, None)
        if delta is None:
            raise CheckFailed(f"world ran out after {len(self.refreshes)} refreshes")
        dep = self.deployment
        step = Step()
        with obs.span("perfbench.refresh"):
            started = time.perf_counter()
            dep.append(*delta, step)
            result = dep.cycle(step)
            model = dep.fit(result, step)
            artifact = dep.export(result, model, step)
            swap_s = swap(conn, artifact.path, artifact.fingerprint)
            wall = time.perf_counter() - started
        self.attempted += step.docs + 1
        self.refreshes.append((step, swap_s, wall))
        self.artifacts.append(artifact)
        self.live = artifact
        self.check_probe(conn, artifact)

    def phase(self, label: str, rate: float, duration_s: float,
              swaps: Tuple[Swap, ...] = ()) -> PhaseResult:
        assert self.server is not None
        due, picks = gen.schedule(self.data.seed, label, rate, duration_s, self.data.weights)
        result = drive(self.server, self.bodies, due, picks, swaps)
        if result.served + result.shed + result.failed != result.sent or result.sent != len(due):
            raise CheckFailed(
                f"{label}: sent {result.sent} of {len(due)}, served {result.served} "
                f"+ shed {result.shed} + failed {result.failed}"
            )
        if result.bad_outputs:
            raise CheckFailed(f"{label}: {result.bad_outputs} responses not a 3-class distribution")
        self.attempted += result.sent
        self.failed += result.shed + result.failed
        return result

    def serving_window(self, conn: Connection, target: Optional[Artifact]) -> None:
        """Open-loop traffic at the nominal rate, with a ``/swap`` to
        *target* halfway when one is given, then the probe check on the
        artifact left live."""
        label = f"window-{len(self.windows)}"
        swaps = () if target is None else (
            Swap(self.plan.window_s / 2, target.path, target.fingerprint),
        )
        window = self.phase(label, NOMINAL_RPS, self.plan.window_s, swaps)
        if window.served == 0:
            raise CheckFailed(f"{label} served nothing")
        self.windows.append(window)
        if target is not None:
            self.live = target
        assert self.live is not None
        self.check_probe(conn, self.live)
        # batch_latency_s is an EWMA over about the last five flushes:
        # read at each window's end, it samples the window's steady state.
        latency = self.metrics_snapshot().get("batch_latency_s")
        if latency is not None:
            self.batch_ms.append(latency * 1000.0)

    def metrics_snapshot(self) -> Dict[str, Any]:
        assert self.server is not None
        status, body = self.server.connect().call("GET", "/metrics")
        if status != 200:
            raise CheckFailed(f"/metrics answered {status}")
        return body

    def run_block(self, deltas: Iterator[Tuple[list, list]]) -> None:
        """Start the server on the live artifact, then run the block's
        serving windows."""
        assert self.live is not None
        conn = self.set_up(self.live)
        if not self.plan.refresh and len(self.artifacts) == 1:
            # The second artifact the windows swap to, built once.
            self.refresh_step(conn, deltas)
        before = self.metrics_snapshot()
        for _ in range(self.plan.rounds):
            if self.plan.refresh:
                self.refresh_step(conn, deltas)
                self.serving_window(conn, None)
            else:
                first, second = self.artifacts
                self.serving_window(conn, first if self.live is second else second)
        self.serve_counts.append(serving_counts(before, self.metrics_snapshot()))

    def probe(self, rate: float, attempt: int) -> bool:
        result = self.phase(f"ladder-{rate:.3f}-{attempt}", rate, PROBE_S)
        late = result.late_ms
        half = len(late) // 2
        growing = half > 0 and (
            statistics.fmean(late[half:]) - statistics.fmean(late[:half]) > LATE_GROWTH_MS
        )
        return result.percentile(95) <= P95_LIMIT_MS and not growing

    def passes(self, rate: float) -> bool:
        """A rate passes when one of two probes in a row meets the limit,
        so one slow spell of the machine does not end the ladder."""
        return self.probe(rate, 0) or self.probe(rate, 1)

    def run_ladder(self) -> None:
        """Highest passing rate on the ladder ``NOMINAL_RPS * 1.1**k``.

        The first probe is the rung just under the rate the serving
        windows' client latency predicts for two connections; the ladder
        then walks up (or down) in 10% steps and bisects the last step
        :data:`BISECTIONS` times.
        """
        estimate = 2000.0 / max(statistics.median(self.served().client_ms), 0.1)
        k = max(0, math.floor(math.log(estimate / NOMINAL_RPS, LADDER_STEP)))

        def rate(k: int) -> float:
            return NOMINAL_RPS * LADDER_STEP ** k

        if self.passes(rate(k)):
            while k < 60 and self.passes(rate(k + 1)):
                k += 1
            low, high = rate(k), rate(k + 1)
        else:
            while k > -24 and not self.passes(rate(k - 1)):
                k -= 1
            low, high = rate(k - 1), rate(k)
        for _ in range(BISECTIONS):
            middle = math.sqrt(low * high)
            if self.passes(middle):
                low = middle
            else:
                high = middle
        self.max_rps = low

    # -- driver ------------------------------------------------------------------

    def served(self) -> PhaseResult:
        """Every serving window's requests, pooled."""
        return PhaseResult.pooled(self.windows)

    def execute(self) -> Dict[str, float]:
        started = time.perf_counter()
        deltas = self.deltas()
        self.cold_start()
        for _ in range(self.plan.blocks):
            self.run_block(deltas)
        blocks_done = time.perf_counter()
        self.run_ladder()
        print(f"phase seconds: blocks {blocks_done - started:.1f}, "
              f"ladder {time.perf_counter() - blocks_done:.1f}", file=sys.stderr)
        self.stop_server()
        live = [step for step, _w in self.backfills] + [step for step, _s, _w in self.refreshes]
        return {
            "setup_s": statistics.median(self.setup_s),
            "pipeline_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "server_peak_rss_mb": self.server_rss_mb,
            "backfill_docs_per_s": statistics.median(
                step.docs / wall for step, wall in self.backfills
            ),
            "refresh_p50_s": statistics.median(wall for _step, _s, wall in self.refreshes),
            "serve_p50_ms": nearest_rank(self.served().latency_ms, 50),
            "serve_p95_ms": statistics.median(w.percentile(95) for w in self.windows),
            "serve_max_rps": self.max_rps,
            "val_accuracy": statistics.median(step.val_accuracy for step in live),
        }

    def serve_stats(self) -> Dict[str, float]:
        """Serving-layer ratios over every block's ``/metrics`` deltas."""
        counts = self.serve_counts
        batches = sum(c["batches"] for c in counts)
        rows = sum(c["rows"] for c in counts)
        hits = sum(c["hits"] for c in counts)
        lookups = hits + sum(c["misses"] for c in counts)
        routed = [sum(per) for per in zip(*(c["routed"] for c in counts))]
        mean_routed = sum(routed) / max(len(routed), 1)
        return {
            "batch_ms": statistics.median(self.batch_ms) if self.batch_ms else 0.0,
            "mean_batch_size": rows / batches if batches else 0.0,
            "cache_hit_rate": hits / lookups if lookups else 0.0,
            "router_skew": (max(routed) - min(routed)) / mean_routed if mean_routed else 0.0,
        }

    def burst_f1(self) -> float:
        """Burst-recovery F1 of the last cycle's Twitter events.

        A function of the seed alone (step counts are fixed), so it is a
        quality guard compared seed by seed rather than a timing.
        """
        planted = gen.planted_config(self.data.config, self.last_cutoff)
        return score_burst_recovery(self.refreshes[-1][0].twitter_events, planted).f1

    def stop_server(self) -> None:
        """Stop the server, keeping its peak memory first."""
        if self.server is not None:
            if self.server.running():
                self.server_rss_mb = max(self.server_rss_mb, self.server.vm_hwm_mb())
            self.server.stop()
            self.server = None

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.deployment is not None:
            self.deployment.close()


def serving_counts(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """Serving-layer counters accumulated between two ``/metrics`` reads."""

    def total(snapshot, key):
        return sum(s[key] for s in snapshot["schedulers"])

    docs_a, docs_b = after["cache"]["documents"], before["cache"]["documents"]
    return {
        "batches": total(after, "batches") - total(before, "batches"),
        "rows": total(after, "batched_rows") - total(before, "batched_rows"),
        "hits": docs_a["hits"] - docs_b["hits"],
        "misses": docs_a["misses"] - docs_b["misses"],
        "routed": [
            a - b for a, b in zip(
                after["router"]["routed_per_replica"], before["router"]["routed_per_replica"]
            )
        ],
    }
