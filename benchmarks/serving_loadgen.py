"""Serving load generator — micro-batching speedup regression harness.

Builds a tiny-but-real serving artifact (300-d deterministic
embeddings — the paper's §4.9 vector size — a seeded synthetic tweet
pool, a briefly trained ``MLP 1``), then drives the
:mod:`repro.serving` stack closed-loop from several client threads and
reports throughput plus p50/p95/p99 latency for two configurations:

* **batched** — micro-batching on (``max_batch_size`` matched to the
  client concurrency; the work-conserving scheduler runs whatever
  queued during the previous forward pass, so closed-loop batches fill
  without any flush timer);
* **single** — micro-batching off (``max_batch_size=1``), i.e. one
  forward pass per request.

The headline number is the batched/single throughput *ratio* — a
machine-relative speedup, stable across runner hardware — checked
against the committed baseline
(``benchmarks/baselines/serving_baseline.json``).  Each run repeats
the pair ``--reps`` times and keeps the best ratio: on small shared
runners a single rep is hostage to scheduler noise.

Used three ways:

* ``benchmarks/test_serving_bench.py`` calls :func:`run_loadgen` inside
  the bench suite (ISSUE-5 acceptance: batched ≥ 3x single, ≤ 2x
  regression vs the baseline);
* CI's ``serve-smoke`` job runs this file with ``--smoke`` — a short
  run asserting non-zero throughput, zero errors, and a warm feature
  cache — plus ``--obs-out`` to prove the serving counters/histograms
  land in an ``repro.obs`` snapshot;
* by hand, to regenerate the baseline with ``--write``.

Usage::

    PYTHONPATH=src python benchmarks/serving_loadgen.py --smoke \
        --obs-out /tmp/serving_obs.json
    PYTHONPATH=src python benchmarks/serving_loadgen.py \
        --check benchmarks/baselines/serving_baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
from datetime import datetime, timedelta
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.core.config import small_config
from repro.datasets import EventTweet, build_dataset
from repro.embeddings import PretrainedEmbeddings
from repro.nn import build_paper_network, one_hot
from repro.serving import (
    FleetConfig,
    FleetService,
    HTTPServingClient,
    ModelRegistry,
    ServingClient,
    ServingConfig,
    ServingServer,
    save_artifact,
)

# A regression fails CI when the measured batched/single speedup falls
# below baseline_speedup / MAX_REGRESSION.
MAX_REGRESSION = 2.0

# ISSUE-5 acceptance floor: micro-batching must beat one-forward-pass-
# per-request by at least this factor under concurrent load.
MIN_SPEEDUP = 3.0

# §4.9 serves 300-d pretrained vectors; the forward pass has to be
# paper-shaped for the batching amortization to be representative.
EMBEDDING_DIM = 300
VOCABULARY = [f"term{i}" for i in range(120)]
BATCH_SIZE = 32
N_THREADS = 32


# ---------------------------------------------------------------------------
# Traffic shapes (shared with benchmarks/fleet_bench.py's autoscaling sim)
# ---------------------------------------------------------------------------

def _constant_shape(phase: float) -> float:
    return 1.0


def _diurnal_shape(phase: float) -> float:
    # One full "day" compressed into the run: a sinusoid around the
    # nominal rate, peaking mid-run.  Amplitude 0.6 → rate swings
    # between 0.4x and 1.6x of nominal.
    import math

    return 1.0 + 0.6 * math.sin(2.0 * math.pi * phase)


def _flashcrowd_shape(phase: float) -> float:
    # Quiet baseline with a 6x spike over 15% of the run — the breaking
    # news burst the autoscaler must absorb.
    return 6.0 if 0.40 <= phase < 0.55 else 0.5


#: shape name -> rate multiplier as a function of run phase in [0, 1).
SHAPES = {
    "constant": _constant_shape,
    "diurnal": _diurnal_shape,
    "flashcrowd": _flashcrowd_shape,
}


def shape_multiplier(shape: str, phase: float) -> float:
    """Rate multiplier of *shape* at run *phase* (fraction in [0, 1))."""
    try:
        fn = SHAPES[shape]
    except KeyError:
        raise ValueError(
            f"unknown traffic shape {shape!r}; expected one of {sorted(SHAPES)}"
        ) from None
    return fn(min(max(phase, 0.0), 1.0))


def peak_multiplier(shape: str, steps: int = 1000) -> float:
    """The shape's maximum multiplier (sampled; exact for these shapes)."""
    return max(shape_multiplier(shape, i / steps) for i in range(steps))


def arrival_times(
    shape: str, duration_s: float, mean_rps: float, seed: int
) -> List[float]:
    """Seeded Poisson arrival offsets (seconds) following *shape*.

    Non-homogeneous Poisson process by thinning: candidate arrivals are
    drawn at the shape's peak rate and accepted with probability
    ``rate(t) / peak``.  Everything is a pure function of
    ``(shape, duration_s, mean_rps, seed)``, so the fleet bench and the
    smoke job replay bitwise-identical traffic on every machine.
    """
    if duration_s <= 0 or mean_rps <= 0:
        return []
    rng = np.random.default_rng(seed)
    peak = mean_rps * peak_multiplier(shape)
    times: List[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / peak))
        if t >= duration_s:
            break
        accept = shape_multiplier(shape, t / duration_s) * mean_rps / peak
        if float(rng.random()) < accept:
            times.append(t)
    return times


def build_request_pool(n_requests: int, seed: int) -> List[EventTweet]:
    """A seeded pool of distinct tweet records.

    Kept deliberately smaller than the request count a run issues, so
    repeats exercise the per-version feature cache.
    """
    rng = np.random.default_rng(seed)
    base = datetime(2021, 3, 1)
    pool = []
    for i in range(n_requests):
        tokens = [VOCABULARY[j] for j in rng.integers(0, len(VOCABULARY), size=8)]
        pool.append(
            EventTweet(
                tokens=tokens,
                event_vocabulary=set(tokens),
                magnitudes={},
                author=f"user{i % 7}",
                followers=int(rng.integers(0, 5000)),
                likes=0,
                retweets=0,
                created_at=base + timedelta(hours=i),
            )
        )
    return pool


def build_artifact(directory: str, seed: int) -> str:
    """Train a tiny ``MLP 1`` on a synthetic A2 dataset and export it.

    Synthetic end to end — no full pipeline run — so the loadgen starts
    serving in a couple of seconds.
    """
    embeddings = PretrainedEmbeddings.deterministic(VOCABULARY, dim=EMBEDDING_DIM)
    records = build_request_pool(200, seed=seed + 1)
    rng = np.random.default_rng(seed)
    for record in records:
        record.likes = int(rng.integers(0, 2500))
        record.retweets = int(rng.integers(0, 400))
    dataset = build_dataset(records, embeddings, "A2")
    model = build_paper_network("MLP 1", input_dim=dataset.n_features, seed=seed)
    model.fit(
        dataset.X,
        one_hot(dataset.y_likes, 3),
        epochs=2,
        batch_size=64,
        track_accuracy=False,
    )
    save_artifact(
        directory,
        model,
        embeddings,
        "A2",
        "MLP 1",
        config=small_config(),
        metadata={"origin": "serving_loadgen"},
    )
    return directory


def _drive(
    client,
    pool: List[EventTweet],
    n_threads: int,
    duration_s: float,
) -> Dict[str, object]:
    """Closed-loop load: each thread issues requests until the deadline.

    Closed-loop keeps at most *n_threads* requests in flight, so the
    scheduler queue never saturates and every error is a real failure.
    """
    latencies_per_thread: List[List[float]] = [[] for _ in range(n_threads)]
    errors: List[str] = []
    start_gate = threading.Barrier(n_threads + 1)

    def worker(thread_index: int) -> None:
        latencies = latencies_per_thread[thread_index]
        start_gate.wait()
        deadline = time.perf_counter() + duration_s
        i = thread_index
        while time.perf_counter() < deadline:
            record = pool[i % len(pool)]
            i += n_threads
            started = time.perf_counter()
            try:
                client.predict(
                    record.tokens,
                    followers=record.followers,
                    created_at=record.created_at,
                    vocabulary=record.event_vocabulary,
                    timeout_s=30.0,
                )
            except Exception as exc:  # staticcheck: disable=broad-except
                errors.append(f"{type(exc).__name__}: {exc}")
                continue
            latencies.append((time.perf_counter() - started) * 1000.0)

    threads = [
        threading.Thread(target=worker, args=(t,), name=f"loadgen-{t}")
        for t in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    start_gate.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    latencies = np.array(
        [value for bucket in latencies_per_thread for value in bucket]
    )
    completed = int(latencies.size)
    p50, p95, p99 = (
        (float(np.percentile(latencies, q)) for q in (50, 95, 99))
        if completed
        else (0.0, 0.0, 0.0)
    )
    return {
        "requests": completed,
        "errors": len(errors),
        "error_samples": errors[:5],
        "seconds": elapsed,
        "throughput_rps": completed / max(elapsed, 1e-9),
        "latency_ms": {"p50": p50, "p95": p95, "p99": p99},
    }


def _drive_open_loop(
    client,
    pool: List[EventTweet],
    times: List[float],
    max_workers: int = 32,
) -> Dict[str, object]:
    """Open-loop load: issue requests at pre-computed arrival offsets.

    Unlike :func:`_drive` the request rate does not adapt to service
    speed — arrivals come when the trace says, which is what makes
    admission control (sheds) observable.  ``AdmissionRejected`` counts
    as a shed, not an error.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.serving import AdmissionRejected

    latencies: List[float] = []
    shed = [0]
    errors: List[str] = []
    state_lock = threading.Lock()

    def issue(record: EventTweet) -> None:
        started = time.perf_counter()
        try:
            client.predict(
                record.tokens,
                followers=record.followers,
                created_at=record.created_at,
                vocabulary=record.event_vocabulary,
                timeout_s=30.0,
            )
        except AdmissionRejected:
            with state_lock:
                shed[0] += 1
            return
        except Exception as exc:  # staticcheck: disable=broad-except
            with state_lock:
                errors.append(f"{type(exc).__name__}: {exc}")
            return
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        with state_lock:
            latencies.append(elapsed_ms)

    started = time.perf_counter()
    with ThreadPoolExecutor(
        max_workers=max_workers, thread_name_prefix="loadgen-open"
    ) as pool_executor:
        for i, offset in enumerate(times):
            delay = started + offset - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            pool_executor.submit(issue, pool[i % len(pool)])
    elapsed = time.perf_counter() - started

    values = np.array(latencies)
    served = int(values.size)
    p50, p95, p99 = (
        (float(np.percentile(values, q)) for q in (50, 95, 99))
        if served
        else (0.0, 0.0, 0.0)
    )
    offered = len(times)
    return {
        "offered": offered,
        "served": served,
        "shed": shed[0],
        "shed_rate": shed[0] / max(offered, 1),
        "errors": len(errors),
        "error_samples": errors[:5],
        "seconds": elapsed,
        "throughput_rps": served / max(elapsed, 1e-9),
        "latency_ms": {"p50": p50, "p95": p95, "p99": p99},
    }


def run_shaped(
    shape: str,
    duration_s: float = 3.0,
    mean_rps: float = 150.0,
    pool_size: int = 64,
    seed: int = 7,
    replicas: int = 2,
    artifact_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Drive a :class:`~repro.serving.fleet.FleetService` with shaped load.

    Open-loop arrivals from :func:`arrival_times` against an in-process
    fleet — the CI fleet-smoke job runs this with ``--shape flashcrowd``
    to prove shedding engages under burst and recovers after.
    """
    times = arrival_times(shape, duration_s, mean_rps, seed)
    with tempfile.TemporaryDirectory(prefix="serving-loadgen-") as scratch:
        if artifact_dir is None:
            artifact_dir = build_artifact(f"{scratch}/artifact", seed=seed)
        pool = build_request_pool(pool_size, seed=seed)
        registry = ModelRegistry()
        registry.load(artifact_dir)
        service = FleetService(
            registry,
            ServingConfig(max_batch_size=BATCH_SIZE, timeout_s=30.0),
            FleetConfig(replicas=replicas),
        )
        try:
            result = _drive_open_loop(ServingClient(service), pool, times)
            metrics = service.metrics()
            result["admission"] = metrics["admission"]
            result["router"] = {
                "policy": metrics["router"]["policy"],
                "routed_per_replica": metrics["router"]["routed_per_replica"],
            }
        finally:
            service.close()
    result.update(
        {
            "bench": "serving_loadgen_shaped",
            "shape": shape,
            "duration_s": duration_s,
            "mean_rps": mean_rps,
            "replicas": replicas,
            "seed": seed,
        }
    )
    return result


def run_one_config(
    artifact_dir: str,
    pool: List[EventTweet],
    serving_config: ServingConfig,
    n_threads: int,
    duration_s: float,
    transport: str,
) -> Dict[str, object]:
    """One measured run of one serving configuration on one replica."""
    registry = ModelRegistry()
    registry.load(artifact_dir)
    service = FleetService(registry, serving_config, FleetConfig(replicas=1))
    server = None
    try:
        if transport == "http":
            server = ServingServer(service, port=0).start()
            client = HTTPServingClient(server.url, timeout_s=30.0)
        else:
            client = ServingClient(service)
        result = _drive(client, pool, n_threads, duration_s)
        metrics = service.metrics()
        scheduler = metrics["schedulers"][0]
        result["mean_batch_size"] = scheduler["mean_batch_size"]
        result["batches"] = scheduler["batches"]
        result["cache"] = metrics["cache"]["documents"]
        result["cache_hit_rate"] = metrics["cache_hit_rate"]
    finally:
        if server is not None:
            server.stop()  # also closes the service
        else:
            service.close()
    return result


def run_loadgen(
    duration_s: float = 1.5,
    n_threads: int = N_THREADS,
    pool_size: int = 64,
    seed: int = 7,
    transport: str = "inproc",
    artifact_dir: Optional[str] = None,
    reps: int = 3,
) -> Dict[str, object]:
    """Batched-vs-single comparison; returns the result record.

    Runs the (batched, single) pair *reps* times against one trained
    artifact and reports the rep with the best speedup — individual
    reps on a loaded single-core runner are noisy, the best-of-N ratio
    is stable.  Errors are summed across every rep, so a request
    failure anywhere still fails the smoke/baseline checks.
    """
    batched_config = ServingConfig(
        max_batch_size=BATCH_SIZE, max_queue=512, timeout_s=30.0
    )
    single_config = ServingConfig(
        max_batch_size=1, max_queue=512, timeout_s=30.0
    )
    attempts = []
    with tempfile.TemporaryDirectory(prefix="serving-loadgen-") as scratch:
        if artifact_dir is None:
            artifact_dir = build_artifact(f"{scratch}/artifact", seed=seed)
        pool = build_request_pool(pool_size, seed=seed)
        for _ in range(max(1, reps)):
            batched = run_one_config(
                artifact_dir, pool, batched_config, n_threads, duration_s, transport
            )
            single = run_one_config(
                artifact_dir, pool, single_config, n_threads, duration_s, transport
            )
            attempts.append(
                {
                    "batched": batched,
                    "single": single,
                    "speedup": batched["throughput_rps"]
                    / max(single["throughput_rps"], 1e-9),
                }
            )
    best = max(attempts, key=lambda attempt: attempt["speedup"])
    return {
        "bench": "serving_loadgen",
        "transport": transport,
        "duration_s": duration_s,
        "n_threads": n_threads,
        "pool_size": pool_size,
        "seed": seed,
        "max_batch_size": BATCH_SIZE,
        "reps": len(attempts),
        "speedups": [round(attempt["speedup"], 3) for attempt in attempts],
        "errors_total": sum(
            attempt[side]["errors"]
            for attempt in attempts
            for side in ("batched", "single")
        ),
        "batched": best["batched"],
        "single": best["single"],
        "speedup": best["speedup"],
    }


def check_against_baseline(
    result: Dict[str, object],
    baseline: Dict[str, object],
    max_regression: float = MAX_REGRESSION,
) -> List[str]:
    """Regression failures of *result* vs the committed *baseline*.

    Compares the machine-relative batched/single throughput ratio (not
    absolute requests/s, which vary across hardware).  Returns a list
    of human-readable failure strings — empty means pass.
    """
    failures: List[str] = []
    floor = float(baseline["speedup"]) / max_regression
    if float(result["speedup"]) < floor:
        failures.append(
            f"batched/single speedup {result['speedup']:.2f}x regressed more "
            f"than {max_regression:.1f}x against the committed baseline "
            f"({baseline['speedup']:.2f}x; floor {floor:.2f}x)"
        )
    if result["errors_total"]:
        failures.append(
            f"{result['errors_total']} request errors across reps "
            f"(samples: {result['batched']['error_samples']}"
            f"{result['single']['error_samples']})"
        )
    return failures


def smoke_failures(result: Dict[str, object]) -> List[str]:
    """CI serve-smoke assertions — empty means pass."""
    failures: List[str] = []
    for side in ("batched", "single"):
        if result[side]["throughput_rps"] <= 0:
            failures.append(f"{side} run served zero requests")
    if result["errors_total"]:
        failures.append(
            f"{result['errors_total']} request errors across reps "
            f"(samples: {result['batched']['error_samples']}"
            f"{result['single']['error_samples']})"
        )
    if result["batched"]["cache"]["hits"] <= 0:
        failures.append("feature cache saw zero hits under repeated requests")
    if result["batched"]["mean_batch_size"] <= 1.0:
        failures.append(
            "micro-batching did not engage "
            f"(mean batch {result['batched']['mean_batch_size']:.2f})"
        )
    return failures


def render(result: Dict[str, object]) -> str:
    """Human-readable table of one loadgen result."""
    lines = [
        "Serving load generator "
        f"(transport={result['transport']}, {result['n_threads']} threads, "
        f"{result['duration_s']:.1f}s per config, pool={result['pool_size']})",
    ]
    for side in ("batched", "single"):
        run = result[side]
        latency = run["latency_ms"]
        lines.append(
            f"  {side:7s}: {run['throughput_rps']:8.1f} req/s  "
            f"p50 {latency['p50']:6.2f}ms  p95 {latency['p95']:6.2f}ms  "
            f"p99 {latency['p99']:6.2f}ms  "
            f"mean batch {run['mean_batch_size']:5.2f}  "
            f"cache hit-rate {run['cache_hit_rate']:.0%}  "
            f"errors {run['errors']}"
        )
    lines.append(
        f"  speedup (batched/single): {result['speedup']:.2f}x "
        f"(best of {result['reps']}: {result['speedups']})"
    )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (see module docstring)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration-s", type=float, default=1.5)
    parser.add_argument("--threads", type=int, default=N_THREADS)
    parser.add_argument("--pool-size", type=int, default=64)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--transport", choices=("inproc", "http"), default="inproc"
    )
    parser.add_argument(
        "--shape",
        choices=sorted(SHAPES),
        help="open-loop shaped traffic against a replica fleet instead of "
        "the closed-loop batched/single comparison",
    )
    parser.add_argument(
        "--rate", type=float, default=150.0,
        help="nominal open-loop arrival rate in req/s (--shape mode)",
    )
    parser.add_argument(
        "--replicas", type=int, default=2,
        help="fleet replica count (--shape mode)",
    )
    parser.add_argument(
        "--artifact", help="serve this artifact dir instead of training one"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short run with liveness assertions (CI serve-smoke job)",
    )
    parser.add_argument(
        "--obs-out",
        help="enable repro.obs and save the registry snapshot here",
    )
    parser.add_argument("--write", help="write the result JSON here")
    parser.add_argument(
        "--check",
        help="baseline JSON to compare against; non-zero exit on regression",
    )
    args = parser.parse_args(argv)

    if args.obs_out:
        obs.set_enabled(True)

    if args.shape:
        result = run_shaped(
            args.shape,
            duration_s=min(args.duration_s, 2.0) if args.smoke else args.duration_s,
            mean_rps=args.rate,
            pool_size=args.pool_size,
            seed=args.seed,
            replicas=args.replicas,
            artifact_dir=args.artifact,
        )
        print(
            f"Shaped load ({args.shape}, {result['replicas']} replicas, "
            f"nominal {result['mean_rps']:.0f} rps): offered {result['offered']}, "
            f"served {result['served']}, shed {result['shed']} "
            f"({result['shed_rate']:.1%}), errors {result['errors']}, "
            f"p95 {result['latency_ms']['p95']:.2f}ms"
        )
        if args.obs_out:
            path = obs.get_registry().save(args.obs_out)
            print(f"obs snapshot: {path}")
        failures = []
        if args.smoke:
            if result["served"] <= 0:
                failures.append("shaped run served zero requests")
            if result["errors"]:
                failures.append(
                    f"{result['errors']} request errors "
                    f"(samples: {result['error_samples']})"
                )
            if result["served"] + result["shed"] != result["offered"]:
                failures.append("served + shed does not account for offered load")
        if args.write:
            with open(args.write, "w", encoding="utf-8") as handle:
                json.dump(result, handle, indent=2)
                handle.write("\n")
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        if args.smoke:
            print("fleet shaped-load smoke ok")
        return 0

    duration_s = min(args.duration_s, 1.0) if args.smoke else args.duration_s
    reps = min(args.reps, 2) if args.smoke else args.reps
    result = run_loadgen(
        duration_s=duration_s,
        n_threads=args.threads,
        pool_size=args.pool_size,
        seed=args.seed,
        transport=args.transport,
        artifact_dir=args.artifact,
        reps=reps,
    )
    print(render(result))
    if args.obs_out:
        path = obs.get_registry().save(args.obs_out)
        print(f"obs snapshot: {path}")

    failures: List[str] = []
    if args.smoke:
        failures.extend(smoke_failures(result))
    if args.check:
        with open(args.check, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        failures.extend(check_against_baseline(result, baseline))
    if args.write:
        with open(args.write, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    if args.check:
        print("baseline check ok")
    if args.smoke:
        print("serve-smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
