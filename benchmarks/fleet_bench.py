"""Fleet scaling bench: deterministic autoscaling sim + real-thread smoke.

The acceptance gates for the serving fleet (ISSUE 10) are **scaling**
properties — ≥2.5x throughput at 4 replicas vs 1, shed rate <1% at
rated load — and the CI runner has a single core, where four *thread*
replicas cannot beat one on real compute.  So this bench splits honesty
from measurement:

* **Deterministic discrete-event simulation** (the gated part): virtual
  time, a fixed synthetic service-time model (``t(b) = base + per_row*b``
  virtual milliseconds per batch of ``b``), and seeded arrival traces
  from :func:`serving_loadgen.arrival_times`.  Crucially it runs the
  *real* fleet control code — :class:`repro.serving.AdmissionController`
  (the 85% queue rule) and the real :data:`repro.serving.POLICIES`
  routing functions — so the gates exercise the shipping
  admission/routing logic, bitwise-identically on every machine.
* **Real-thread measurement** (informational, ``--real``): a live
  :class:`~repro.serving.fleet.FleetService` at 1 and 4 replicas under
  closed-loop load.  Numbers are recorded for the record, never gated —
  on a single core they measure the GIL, not the architecture.

The autoscaling scenario replays a flash-crowd trace and steps the
replica count against a target p95, proving scale-up under burst and
scale-down after; the diurnal trace at rated load is the shed-rate
gate.

Usage::

    PYTHONPATH=src python benchmarks/fleet_bench.py --smoke
    PYTHONPATH=src python benchmarks/fleet_bench.py \
        --check benchmarks/baselines/fleet_baseline.json
    PYTHONPATH=src python benchmarks/fleet_bench.py \
        --write benchmarks/baselines/fleet_baseline.json
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))

from serving_loadgen import arrival_times  # noqa: E402

from repro.serving import (  # noqa: E402
    POLICIES,
    AdmissionController,
    AdmissionRejected,
)

# Acceptance gates (evaluated on the deterministic sim).
MIN_SCALING = 2.5       # throughput(4 replicas) / throughput(1) at rated load
MAX_SHED_RATE = 0.01    # shed fraction at rated load, 4 replicas

# Fixed synthetic service-time model: one batch of b rows costs
# BASE_MS + PER_ROW_MS * b virtual milliseconds on one replica.  The
# numbers are paper-plausible (MLP forward on a few hundred features)
# but their only real job is to be FIXED — the sim's outputs are a pure
# function of (model, trace, seeds).
BASE_MS = 2.0
PER_ROW_MS = 0.25
BATCH_SIZE = 32

#: One replica's ideal capacity under the model, requests/second.
REPLICA_CAPACITY_RPS = BATCH_SIZE / ((BASE_MS + PER_ROW_MS * BATCH_SIZE) / 1000.0)


def batch_ms(rows: int) -> float:
    """Virtual milliseconds one replica spends on a batch of *rows*."""
    return BASE_MS + PER_ROW_MS * rows


class _SimReplica:
    """One simulated replica: a queue and a busy-until horizon."""

    __slots__ = ("index", "queue", "busy_until", "retired")

    def __init__(self, index: int) -> None:
        self.index = index
        self.queue: List[float] = []   # arrival timestamps of queued requests
        self.busy_until = 0.0
        self.retired = False


class FleetSimulator:
    """Discrete-event fleet under the fixed service-time model.

    Runs the real admission controller and the real
    routing policy over simulated replicas.  ``autoscale`` (optional)
    is ``{"min": .., "max": .., "target_p95_ms": .., "interval_s": ..}``
    and steps the active replica count at control-interval boundaries
    from the interval's realised p95.
    """

    def __init__(
        self,
        replicas: int,
        policy: str = "least_loaded",
        max_queue: int = 256,
        autoscale: Optional[Dict[str, float]] = None,
    ) -> None:
        self.now = 0.0
        self.policy = POLICIES[policy]
        self.max_queue = max_queue
        self.autoscale = autoscale
        limit = replicas if autoscale is None else int(autoscale["max"])
        self.replicas = [_SimReplica(i) for i in range(limit)]
        self.active = replicas
        for replica in self.replicas[replicas:]:
            replica.retired = True
        self.admission = AdmissionController()
        self.rotation = 0
        self.completions: List[Tuple[float, int, int]] = []  # (t, replica, rows)
        self.latencies: List[float] = []
        self.interval_latencies: List[float] = []
        self.scale_events: List[Dict[str, float]] = []
        self.served = 0
        self.shed = 0

    # -- virtual machinery ---------------------------------------------------

    def _start_batch(self, replica: _SimReplica) -> None:
        if replica.busy_until > self.now or not replica.queue:
            return
        rows = min(BATCH_SIZE, len(replica.queue))
        batch, replica.queue = replica.queue[:rows], replica.queue[rows:]
        done = self.now + batch_ms(rows) / 1000.0
        replica.busy_until = done
        heapq.heappush(self.completions, (done, replica.index, rows))
        for arrived in batch:
            latency_ms = (done - arrived) * 1000.0
            self.latencies.append(latency_ms)
            self.interval_latencies.append(latency_ms)
            self.served += 1

    def _advance(self, until: float) -> None:
        """Play out batch completions up to virtual time *until*."""
        while self.completions and self.completions[0][0] <= until:
            done, index, _rows = heapq.heappop(self.completions)
            self.now = done
            self._start_batch(self.replicas[index])
        self.now = until

    def _healthy(self) -> List[_SimReplica]:
        return [r for r in self.replicas if not r.retired]

    def _autoscale_step(self) -> None:
        assert self.autoscale is not None
        p95 = (
            float(np.percentile(self.interval_latencies, 95))
            if self.interval_latencies
            else 0.0
        )
        self.interval_latencies = []
        target = self.autoscale["target_p95_ms"]
        low, high = int(self.autoscale["min"]), int(self.autoscale["max"])
        before = self.active
        if p95 > target and self.active < high:
            self.active += 1
            self.replicas[self.active - 1].retired = False
        elif p95 < target / 4.0 and self.active > low:
            # Retire the highest-index active replica; its queued work
            # still drains (it takes no new assignments).
            self.replicas[self.active - 1].retired = True
            self.active -= 1
        if self.active != before:
            self.scale_events.append(
                {"t": round(self.now, 4), "replicas": self.active, "p95_ms": round(p95, 3)}
            )

    # -- the run -------------------------------------------------------------

    def run(self, arrivals: List[float]) -> Dict[str, object]:
        """Replay *arrivals* (sorted virtual seconds); returns the record."""
        boundary = None
        if self.autoscale is not None:
            interval = self.autoscale["interval_s"]
            boundary = interval
        for arrived in arrivals:
            while boundary is not None and boundary <= arrived:
                self._advance(boundary)
                self._autoscale_step()
                boundary += self.autoscale["interval_s"]
            self._advance(arrived)
            healthy = self._healthy()
            depths = [len(r.queue) for r in healthy]
            try:
                self.admission.admit(
                    queue_depth=min(depths), queue_capacity=self.max_queue
                )
            except AdmissionRejected:
                self.shed += 1
                continue
            indices = [r.index for r in healthy]
            chosen = self.policy(indices, depths, self.rotation)
            self.rotation += 1
            replica = self.replicas[chosen]
            replica.queue.append(self.now)
            self._start_batch(replica)
        # Drain everything still in flight.
        self._advance(float("inf") if not arrivals else arrivals[-1] + 60.0)
        offered = len(arrivals)
        values = np.array(self.latencies)
        horizon = max(arrivals[-1], 1e-9) if arrivals else 1e-9
        return {
            "offered": offered,
            "served": self.served,
            "shed": self.shed,
            "shed_rate": self.shed / max(offered, 1),
            "throughput_rps": self.served / horizon,
            "latency_ms": {
                "p50": float(np.percentile(values, 50)) if values.size else 0.0,
                "p95": float(np.percentile(values, 95)) if values.size else 0.0,
                "p99": float(np.percentile(values, 99)) if values.size else 0.0,
            },
            "admission": self.admission.stats(),
            "scale_events": self.scale_events,
            "final_replicas": self.active,
        }


def simulate(
    replicas: int,
    shape: str,
    duration_s: float,
    mean_rps: float,
    seed: int,
    **kwargs,
) -> Dict[str, object]:
    """One simulation run over a seeded arrival trace."""
    arrivals = arrival_times(shape, duration_s, mean_rps, seed)
    sim = FleetSimulator(replicas, **kwargs)
    result = sim.run(arrivals)
    result.update(
        {
            "replicas": replicas,
            "shape": shape,
            "duration_s": duration_s,
            "mean_rps": mean_rps,
            "seed": seed,
        }
    )
    return result


def run_fleet_bench(
    duration_s: float = 20.0, seed: int = 11
) -> Dict[str, object]:
    """The full gated scenario set; returns the result record.

    * **scaling**: constant traffic at 70% of the 4-replica capacity,
      served by 1 vs 4 replicas — the 1-replica fleet is driven 2.8x
      past its capacity and sheds, the 4-replica fleet absorbs it;
    * **rated**: diurnal traffic at the fleet's rated load (55% of
      aggregate capacity, so the 1.6x diurnal peak stays under 90%
      utilisation) on 4 replicas is the shed-rate gate;
    * **autoscale**: a flash-crowd trace with the p95-tracking stepper,
      proving scale-up into the burst and scale-down after.

    Every number is a pure function of ``(model constants, seed)``.
    """
    scaling_rps = 0.7 * 4 * REPLICA_CAPACITY_RPS
    rated_rps = 0.55 * 4 * REPLICA_CAPACITY_RPS
    four = simulate(4, "constant", duration_s, scaling_rps, seed)
    one = simulate(1, "constant", duration_s, scaling_rps, seed)
    rated = simulate(4, "diurnal", duration_s, rated_rps, seed)
    scaling = four["throughput_rps"] / max(one["throughput_rps"], 1e-9)
    autoscale = simulate(
        1,
        "flashcrowd",
        duration_s,
        0.9 * REPLICA_CAPACITY_RPS,
        seed + 1,
        autoscale={
            "min": 1,
            "max": 4,
            "target_p95_ms": 4.0 * batch_ms(BATCH_SIZE),
            "interval_s": max(duration_s / 40.0, 0.25),
        },
    )
    peak_replicas = max(
        [e["replicas"] for e in autoscale["scale_events"]],
        default=autoscale["final_replicas"],
    )
    return {
        "bench": "fleet_bench",
        "model": {
            "base_ms": BASE_MS,
            "per_row_ms": PER_ROW_MS,
            "batch_size": BATCH_SIZE,
            "replica_capacity_rps": round(REPLICA_CAPACITY_RPS, 3),
        },
        "duration_s": duration_s,
        "seed": seed,
        "scaling_rps": round(scaling_rps, 3),
        "rated_rps": round(rated_rps, 3),
        "one_replica": one,
        "four_replicas": four,
        "rated": rated,
        "scaling": round(scaling, 4),
        "autoscale": autoscale,
        "autoscale_peak_replicas": peak_replicas,
    }


def gate_failures(result: Dict[str, object]) -> List[str]:
    """Hard acceptance gates — empty means pass."""
    failures: List[str] = []
    if result["scaling"] < MIN_SCALING:
        failures.append(
            f"4-replica/1-replica throughput ratio {result['scaling']:.2f}x "
            f"fell below the {MIN_SCALING:.1f}x gate"
        )
    shed_rate = result["rated"]["shed_rate"]
    if shed_rate >= MAX_SHED_RATE:
        failures.append(
            f"shed rate {shed_rate:.2%} at rated load (4 replicas, diurnal) "
            f"breaches the {MAX_SHED_RATE:.0%} gate"
        )
    auto = result["autoscale"]
    if result["autoscale_peak_replicas"] < 2:
        failures.append(
            "autoscaler never scaled up under the flash crowd "
            f"(events: {auto['scale_events']})"
        )
    if auto["final_replicas"] >= result["autoscale_peak_replicas"] > 1:
        failures.append(
            "autoscaler never scaled back down after the flash crowd "
            f"(events: {auto['scale_events']})"
        )
    return failures


def check_against_baseline(
    result: Dict[str, object], baseline: Dict[str, object]
) -> List[str]:
    """Drift failures vs the committed baseline — empty means pass.

    The sim is deterministic, so the committed numbers must reproduce
    *exactly*; any diff means the admission/routing logic (or the
    model constants) changed and the baseline needs a deliberate
    regeneration with ``--write``.
    """
    failures: List[str] = []
    for key in ("scaling", "rated_rps"):
        if result[key] != baseline[key]:
            failures.append(
                f"deterministic sim drifted: {key} {result[key]!r} != "
                f"baseline {baseline[key]!r}"
            )
    for scenario in ("one_replica", "four_replicas", "rated"):
        for key in ("served", "shed"):
            got = result[scenario][key]
            want = baseline[scenario][key]
            if got != want:
                failures.append(
                    f"deterministic sim drifted: {scenario}.{key} {got} != "
                    f"baseline {want}"
                )
    if result["autoscale"]["scale_events"] != baseline["autoscale"]["scale_events"]:
        failures.append(
            "deterministic sim drifted: autoscale step sequence changed "
            f"({result['autoscale']['scale_events']} vs "
            f"{baseline['autoscale']['scale_events']})"
        )
    failures.extend(gate_failures(result))
    return failures


def run_real_fleet(duration_s: float = 1.0, seed: int = 7) -> Dict[str, object]:
    """Informational real-thread fleet measurement (never gated).

    Closed-loop load against a live :class:`FleetService` at 1 and 4
    replicas.  On a single-core runner the ratio mostly measures GIL
    contention — it is recorded so a multi-core runner's numbers have
    somewhere to land, and to smoke the real fleet under load.
    """
    import tempfile

    from serving_loadgen import _drive, build_artifact, build_request_pool

    from repro.serving import (
        FleetConfig,
        FleetService,
        ModelRegistry,
        ServingClient,
        ServingConfig,
    )

    results = {}
    with tempfile.TemporaryDirectory(prefix="fleet-bench-") as scratch:
        artifact = build_artifact(f"{scratch}/artifact", seed=seed)
        pool = build_request_pool(64, seed=seed)
        for replicas in (1, 4):
            registry = ModelRegistry()
            registry.load(artifact)
            service = FleetService(
                registry,
                ServingConfig(max_batch_size=BATCH_SIZE, timeout_s=30.0),
                FleetConfig(replicas=replicas),
            )
            try:
                results[f"replicas_{replicas}"] = _drive(
                    ServingClient(service), pool, n_threads=16, duration_s=duration_s
                )
            finally:
                service.close()
    ratio = results["replicas_4"]["throughput_rps"] / max(
        results["replicas_1"]["throughput_rps"], 1e-9
    )
    results["ratio_informational"] = round(ratio, 3)
    return results


def render(result: Dict[str, object]) -> str:
    """Human-readable summary of one bench record."""
    one, four, rated, auto = (
        result["one_replica"],
        result["four_replicas"],
        result["rated"],
        result["autoscale"],
    )
    lines = [
        f"Fleet bench (deterministic sim, seed {result['seed']}, "
        f"{result['duration_s']:.0f}s virtual; scaling load "
        f"{result['scaling_rps']:.0f} rps, rated {result['rated_rps']:.0f} rps)",
        f"  1 replica : served {one['served']:6d}  shed {one['shed']:6d} "
        f"({one['shed_rate']:.1%})  p95 {one['latency_ms']['p95']:7.2f}ms",
        f"  4 replicas: served {four['served']:6d}  shed {four['shed']:6d} "
        f"({four['shed_rate']:.2%})  p95 {four['latency_ms']['p95']:7.2f}ms",
        f"  rated     : served {rated['served']:6d}  shed {rated['shed']:6d} "
        f"({rated['shed_rate']:.2%})  p95 {rated['latency_ms']['p95']:7.2f}ms "
        f"(diurnal, 4 replicas)",
        f"  scaling   : {result['scaling']:.2f}x (gate >= {MIN_SCALING}x); "
        f"shed gate < {MAX_SHED_RATE:.0%}",
        f"  autoscale : flash crowd stepped to {result['autoscale_peak_replicas']} "
        f"replicas, back to {auto['final_replicas']} "
        f"(events: {auto['scale_events']})",
    ]
    if "real" in result:
        real = result["real"]
        lines.append(
            f"  real threads (informational): 4-vs-1 replica ratio "
            f"{real['ratio_informational']:.2f}x on this runner"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (see module docstring)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration-s", type=float, default=20.0,
                        help="virtual seconds of traffic per scenario")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced scale + gates + a real-thread smoke run")
    parser.add_argument("--real", action="store_true",
                        help="include the informational real-thread measurement")
    parser.add_argument("--write", help="write the result JSON here")
    parser.add_argument("--check",
                        help="baseline JSON to compare against; non-zero exit on drift")
    args = parser.parse_args(argv)

    duration_s = min(args.duration_s, 8.0) if args.smoke else args.duration_s
    result = run_fleet_bench(duration_s=duration_s, seed=args.seed)
    if args.real or args.smoke:
        result["real"] = run_real_fleet(duration_s=0.6 if args.smoke else 1.5,
                                        seed=args.seed)
    print(render(result))

    failures = gate_failures(result)
    if args.check:
        with open(args.check, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        if (
            baseline["duration_s"] == result["duration_s"]
            and baseline["seed"] == result["seed"]
        ):
            failures = check_against_baseline(result, baseline)
        else:
            print(
                "note: baseline recorded at different scale "
                f"({baseline['duration_s']}s/seed {baseline['seed']}); "
                "gates only, no exact-match check"
            )
    if args.write:
        stripped = {k: v for k, v in result.items() if k != "real"}
        with open(args.write, "w", encoding="utf-8") as handle:
            json.dump(stripped, handle, indent=2)
            handle.write("\n")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    if args.check:
        print("fleet baseline check ok")
    if args.smoke:
        print("fleet-smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
