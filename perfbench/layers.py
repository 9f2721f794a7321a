"""Per-layer metrics of a traced run, read from the ``repro.obs`` span tree.

The program already emits ``streaming.cycle`` with one child span per
stage and ``nn.fit`` around training.  The benchmark adds its own root
spans around each cold start and refresh step (``perfbench.backfill``,
``perfbench.refresh``), so every stage span of a step is found under
the step that caused it.  Nothing here adds spans inside the program.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, Iterable, List, Tuple

from repro import obs

from server import nearest_rank

#: metric name -> unit, in report order; the ungated end-to-end
#: pipeline timings lead.
PER_LAYER: Dict[str, str] = {
    "backfill_docs_per_s": "docs/s",
    "refresh_p50_s": "s",
    "ingest.append_s": "s",
    "ingest.docs_per_s": "docs/s",
    "ingest.dropped_late": "count",
    "streaming.cycle_s": "s",
    "streaming.fold_s": "s",
    "streaming.folded_docs": "count",
    "topics.nmf_s": "s",
    "topics.nmf_iterations": "count",
    "topics.nmf_iter_ms": "ms",
    "embeddings.lsa_s": "s",
    "embeddings.vocab": "count",
    "events.mabed_s": "s",
    "events.n_events": "count",
    "events.burst_f1": "ratio",
    "core.correlate_s": "s",
    "core.event_tweets": "count",
    "datasets.build_s": "s",
    "datasets.rows": "count",
    "nn.fit_s": "s",
    "nn.epochs": "count",
    "nn.epoch_ms": "ms",
    "serving.export_s": "s",
    "serving.artifact_mb": "MB",
    "serving.swap_ms": "ms",
    "serving.server_ms": "ms",
    "serving.http_ms": "ms",
    "serving.batch_ms": "ms",
    "serving.queue_wait_ms": "ms",
    "serving.mean_batch_size": "rows",
    "serving.cache_hit_rate": "ratio",
    "serving.shed": "count",
    "serving.errors": "count",
    "serving.router_skew": "ratio",
    "loadgen.late_ms_p95": "ms",
    "refresh.unattributed_frac": "ratio",
    "obs.overhead_frac": "ratio",
}

#: Stage spans under ``streaming.cycle`` that make up each layer.
STAGES = {
    "topics": ("streaming.topic_modeling",),
    "embeddings": ("streaming.embeddings",),
    "events": ("streaming.news_event_detection", "streaming.twitter_event_detection"),
    "core": ("streaming.trending_news", "streaming.correlation", "streaming.feature_creation"),
    "datasets": ("streaming.dataset_building",),
}


def find(span, name: str) -> List:
    """Every span called *name* in the subtree of *span*."""
    found = [span] if span.name == name else []
    for child in span.children:
        found += find(child, name)
    return found


def wall(spans: Iterable, names: Tuple[str, ...]) -> float:
    return sum(s.wall_s or 0.0 for root in spans for n in names for s in find(root, n))


def med(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def overhead_frac(pipeline, pairs: int = 2) -> float:
    """Traced over untraced time of an idle ``cycle()``, minus one.

    A cycle with nothing new to fold reruns every global stage over the
    same state, so traced and untraced runs do identical work; the two
    are alternated to cancel drift.
    """
    times: Dict[bool, List[float]] = {True: [], False: []}
    previous = obs.set_enabled(False)
    try:
        for i in range(2 * pairs):
            traced = (i % 2 == 0) == (i // 2 % 2 == 0)
            obs.set_enabled(traced)
            started = time.perf_counter()
            pipeline.cycle()
            times[traced].append(time.perf_counter() - started)
    finally:
        obs.set_enabled(previous)
    return med(times[True]) / med(times[False]) - 1.0


def per_layer(run, overhead: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from a finished traced *run*.

    Ingest and fold metrics come from the cold start, where that work
    is; the others from the refresh steps.
    """
    roots = obs.get_registry().roots
    cold = [step for step, _wall in run.backfills]
    cold_roots = [r for r in roots if r.name == "perfbench.backfill"]
    steps = [step for step, _s, _w in run.refreshes]
    focus = [r for r in roots if r.name == "perfbench.refresh"]
    if len(cold_roots) != len(cold) or len(focus) != len(steps):
        raise RuntimeError("span tree does not match the steps the run timed")

    def per_step(names: Tuple[str, ...], within: List = focus) -> float:
        return med(wall([root], names) for root in within)

    fit_s = per_step(("nn.fit",))
    epochs = med(s.epochs for s in steps)
    nmf_s = per_step(STAGES["topics"])
    iterations = med(s.nmf_iterations for s in steps)

    # Refresh wall time not covered by the benchmark's timed calls, plus
    # the part of each cycle not under a streaming.* stage span.
    unattributed = covered = 0.0
    for root, (step, swap_s, wall_s) in zip(focus, run.refreshes):
        timed = step.append_s + step.cycle_s + step.fit_s + step.export_s + swap_s
        cycle = find(root, "streaming.cycle")[0]
        stage_s = sum(c.wall_s or 0.0 for c in cycle.children if c.name.startswith("streaming."))
        unattributed += (wall_s - timed) + ((cycle.wall_s or 0.0) - stage_s)
        covered += wall_s

    served, stats = run.served(), run.serve_stats()
    server_ms = med(served.server_ms)
    swaps_ms = [swap_s * 1000.0 for _step, swap_s, _w in run.refreshes] + served.swap_ms
    return {
        "ingest.append_s": med(s.append_s for s in cold),
        "ingest.docs_per_s": sum(s.docs for s in cold) / sum(s.append_s for s in cold),
        "ingest.dropped_late": sum(s.dropped_late for s in cold + steps),
        "streaming.cycle_s": med(s.cycle_s for s in steps),
        "streaming.fold_s": per_step(("streaming.fold",), cold_roots),
        "streaming.folded_docs": sum(
            sum(s.meta.get(k, 0) for k in ("n_new_news", "n_new_tweets"))
            for root in cold_roots + focus for s in find(root, "streaming.fold")
        ),
        "topics.nmf_s": nmf_s,
        "topics.nmf_iterations": iterations,
        "topics.nmf_iter_ms": 1000.0 * nmf_s / max(iterations, 1),
        "embeddings.lsa_s": per_step(STAGES["embeddings"]),
        "embeddings.vocab": med(s.vocab for s in steps),
        "events.mabed_s": per_step(STAGES["events"]),
        "events.n_events": med(s.n_events for s in steps),
        "events.burst_f1": run.burst_f1(),
        "core.correlate_s": per_step(STAGES["core"]),
        "core.event_tweets": med(s.event_tweets for s in steps),
        "datasets.build_s": per_step(STAGES["datasets"]),
        "datasets.rows": med(s.rows for s in steps),
        "nn.fit_s": fit_s,
        "nn.epochs": epochs,
        "nn.epoch_ms": 1000.0 * fit_s / max(epochs, 1),
        "serving.export_s": med(s.export_s for s in steps),
        "serving.artifact_mb": run.artifacts[-1].size_mb,
        "serving.swap_ms": med(swaps_ms),
        "serving.server_ms": server_ms,
        "serving.http_ms": med(c - s for c, s in zip(served.client_ms, served.server_ms)),
        "serving.batch_ms": stats["batch_ms"],
        "serving.queue_wait_ms": server_ms - stats["batch_ms"],
        "serving.mean_batch_size": stats["mean_batch_size"],
        "serving.cache_hit_rate": stats["cache_hit_rate"],
        "serving.shed": served.shed,
        "serving.errors": served.failed,
        "serving.router_skew": stats["router_skew"],
        "loadgen.late_ms_p95": nearest_rank(served.late_ms, 95),
        "refresh.unattributed_frac": unattributed / covered,
        "obs.overhead_frac": overhead,
    }


def render(values: Dict[str, float], units: Dict[str, str]) -> str:
    """A two-column table of *values*, in *units* order."""
    width = max(len(name) for name in units)
    return "\n".join(f"  {name:<{width}}  {values[name]:>14.6g} {unit}" for name, unit in units.items())

