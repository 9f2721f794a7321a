"""Command-line interface for the reproduction.

Subcommands mirror the pipeline's stages so each piece can be driven
standalone, the way the paper's deployed modules ran on a 2-hour cycle
(§4.9):

    python -m repro generate   --articles 800 --tweets 3000 --out data/
    python -m repro topics     --data data/ --n-topics 12
    python -m repro events     --data data/ --medium twitter
    python -m repro run        --data data/            # full pipeline
    python -m repro ingest     --data data/ --input new.jsonl --cycle
    python -m repro predict    --data data/ --variant A2 --network "MLP 1"

``generate`` persists a synthetic world as JSONL snapshots through the
document store; the other commands restore it and run the requested
stage.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import obs
from .core import AudienceInterestPredictor, NewsDiffusionPipeline
from .core.config import PipelineConfig
from .datagen import UserPopulation, World, WorldConfig, build_world
from .store import Database


def _world_from_snapshot(directory: str, store_shards: Optional[int] = None) -> World:
    from .store import CollectionNotFound

    database = Database("news_diffusion", shard_count=store_shards)
    try:
        database.restore(directory)
    except CollectionNotFound:
        raise SystemExit(
            f"no snapshot at {directory!r}; run `python -m repro generate` first"
        )
    for collection in ("news", "tweets"):
        if collection not in database:
            raise SystemExit(
                f"snapshot at {directory!r} has no {collection!r} collection; "
                "run `python -m repro generate` first"
            )
    # Timestamps were serialized as strings; parse them back.
    from datetime import datetime

    for name in ("news", "tweets"):
        for doc in database[name].find():
            created = doc["created_at"]
            if isinstance(created, str):
                database[name].update_one(
                    {"_id": doc["_id"]},
                    {"$set": {"created_at": datetime.fromisoformat(created)}},
                )
    config = WorldConfig(store_shards=store_shards)
    return World(
        config=config,
        database=database,
        population=UserPopulation(config),
    )


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(
        n_topics=args.n_topics,
        n_news_events=args.news_events,
        n_twitter_events=args.twitter_events,
        embedding_dim=args.embedding_dim,
        min_term_support=args.min_term_support,
        min_event_records=args.min_event_records,
        seed=args.seed,
        retry_attempts=args.retry_attempts,
        nn_dtype=getattr(args, "nn_dtype", None),
    )


def _checkpoint_kwargs(args: argparse.Namespace) -> dict:
    """``run(**kwargs)`` for the ``--checkpoint-dir``/``--resume`` flags."""
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    resume = getattr(args, "resume", False)
    if resume and checkpoint_dir is None:
        raise SystemExit("--resume requires --checkpoint-dir")
    if resume:
        return {"resume_from": checkpoint_dir}
    if checkpoint_dir is not None:
        return {"checkpoint_dir": checkpoint_dir}
    return {}


def cmd_generate(args: argparse.Namespace) -> int:
    """Handle the ``generate`` subcommand."""
    world = build_world(
        WorldConfig(
            n_articles=args.articles,
            n_tweets=args.tweets,
            n_users=args.users,
            seed=args.seed,
            store_shards=args.store_shards,
        )
    )
    counts = world.database.snapshot(args.out)
    print(f"world written to {args.out}: {counts}")
    return 0


def cmd_topics(args: argparse.Namespace) -> int:
    """Handle the ``topics`` subcommand."""
    world = _world_from_snapshot(args.data, store_shards=args.store_shards)
    pipeline = NewsDiffusionPipeline(_pipeline_config(args))
    nmf = pipeline.extract_news_topics(pipeline.preprocess_news_tm(world))
    for topic in nmf.topics:
        print(f"NT#{topic.index + 1:<3} {' '.join(topic.keywords[:10])}")
    return 0


def cmd_events(args: argparse.Namespace) -> int:
    """Handle the ``events`` subcommand."""
    world = _world_from_snapshot(args.data, store_shards=args.store_shards)
    pipeline = NewsDiffusionPipeline(_pipeline_config(args))
    if args.medium == "news":
        events = pipeline.detect_news_events(pipeline.preprocess_news_ed(world))
    else:
        events = pipeline.detect_twitter_events(
            pipeline.preprocess_twitter_ed(world)
        )
    for event in events:
        print(event.describe())
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Handle the ``run`` subcommand."""
    world = _world_from_snapshot(args.data, store_shards=args.store_shards)
    result = NewsDiffusionPipeline(_pipeline_config(args)).run(
        world, **_checkpoint_kwargs(args)
    )
    print(result.summary())
    print("\ncorrelated pairs:")
    for pair in result.correlation.pairs:
        print("  " + pair.describe())
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    """Handle the ``predict`` subcommand."""
    world = _world_from_snapshot(args.data, store_shards=args.store_shards)
    result = NewsDiffusionPipeline(_pipeline_config(args)).run(
        world, **_checkpoint_kwargs(args)
    )
    if args.variant not in result.datasets:
        raise SystemExit(
            f"no dataset {args.variant!r}; pipeline produced "
            f"{sorted(result.datasets) or 'none'}"
        )
    predictor = AudienceInterestPredictor(
        max_epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        dtype=getattr(args, "nn_dtype", None),
    )
    outcome = predictor.train(
        result.datasets[args.variant], args.network, target=args.target
    )
    print(
        f"{args.network} on {args.variant} ({args.target}): "
        f"accuracy={outcome.validation_accuracy:.3f} "
        f"avg_accuracy={outcome.validation_average_accuracy:.3f} "
        f"epochs={outcome.n_epochs}"
    )
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    """Handle the ``ingest`` subcommand.

    Appends JSONL records to a world snapshot through the streaming
    :class:`~repro.streaming.IngestSession` — durable (store WAL),
    watermarked (late records are dropped, not silently misfiled) — and
    rewrites the snapshot.  With ``--cycle`` it then runs one
    :class:`~repro.streaming.IncrementalPipeline` cycle over the
    updated store and prints the usual run summary.

    A bad input line exits with ``<file>:<line>: <reason>`` before
    anything is appended; records are checked with the same
    :func:`~repro.streaming.ingest.find_invalid_record` the session
    applies.
    """
    import json
    from datetime import datetime, timedelta

    from .streaming import IncrementalPipeline, IngestSession, StreamingConfig
    from .streaming.ingest import find_invalid_record

    world = _world_from_snapshot(args.data, store_shards=args.store_shards)
    lateness = timedelta(minutes=args.allowed_lateness_minutes)
    session = IngestSession.resume(world.database, allowed_lateness=lateness)
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            lines = list(enumerate(handle, start=1))
    except OSError as exc:
        raise SystemExit(f"{args.input}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise SystemExit(f"{args.input}: not UTF-8 text ({exc.reason})")
    records, line_numbers = [], []
    for number, line in lines:
        if not line.strip():
            continue
        where = f"{args.input}:{number}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"{where}: invalid JSON: {exc.msg} (column {exc.colno})")
        created = record.get("created_at") if isinstance(record, dict) else None
        if isinstance(created, str):
            try:
                record["created_at"] = datetime.fromisoformat(created)
            except ValueError:
                raise SystemExit(f"{where}: 'created_at' is not ISO 8601: {created!r}")
        records.append(record)
        line_numbers.append(number)
    invalid = find_invalid_record(records, session.watermark(args.collection))
    if invalid is not None:
        index, reason = invalid
        raise SystemExit(f"{args.input}:{line_numbers[index]}: {reason}")
    ack = session.append(args.collection, records)
    counts = world.database.snapshot(args.data)
    watermark = ack.watermark.isoformat() if ack.watermark else "-"
    print(
        f"accepted {ack.accepted} record(s) into {args.collection!r}, "
        f"dropped {ack.dropped_late} late (watermark {watermark})"
    )
    print(f"snapshot updated at {args.data}: {counts}")
    if args.cycle:
        pipeline = IncrementalPipeline(
            _pipeline_config(args),
            StreamingConfig(allowed_lateness=lateness),
            database=world.database,
        )
        print(pipeline.cycle().summary())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Handle the ``serve`` subcommand.

    Loads a ``repro.serving`` artifact directory (exported by
    ``DeploymentSimulator.run(serve=...)`` or
    :func:`repro.serving.save_artifact`) and serves it over HTTP.
    Artifact problems exit non-zero with a clean message — an operator
    typo must not produce a traceback.
    """
    from .serving import (
        ArtifactError,
        FleetConfig,
        FleetService,
        ModelRegistry,
        ServingConfig,
        ServingServer,
    )

    try:
        config = ServingConfig.from_env(
            host=args.host,
            port=args.port,
            max_batch_size=args.max_batch_size,
            cache_size=args.cache_size,
            max_queue=args.queue_size,
            timeout_s=args.timeout_s,
        )
        fleet_config = FleetConfig.from_env(
            replicas=args.replicas,
            router=args.router,
        )
    except ValueError as exc:
        raise SystemExit(f"invalid serving configuration: {exc}")
    registry = ModelRegistry(retry_policy=config.retry_policy())
    try:
        version = registry.load(
            args.artifact, expect_fingerprint=args.expect_fingerprint
        )
    except ArtifactError as exc:
        raise SystemExit(f"cannot serve {args.artifact!r}: {exc}")
    print(
        f"loaded {version.network!r} on variant {version.variant} "
        f"(v{version.version_id}, fingerprint {version.fingerprint[:12]}...)"
    )
    if args.check_only:
        print("artifact OK (--check-only; not binding a server)")
        return 0
    service = FleetService(registry, config, fleet_config)
    print(
        f"fleet of {fleet_config.replicas} replicas "
        f"(router {fleet_config.router!r})"
    )
    server = ServingServer(service, host=config.host, port=config.port)
    host, port = server.address
    print(
        f"serving on http://{host}:{port}  "
        f"(POST /predict, /swap; GET /healthz, /metrics)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _add_pipeline_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="snapshot directory")
    parser.add_argument("--n-topics", type=int, default=12)
    parser.add_argument("--news-events", type=int, default=20)
    parser.add_argument("--twitter-events", type=int, default=40)
    parser.add_argument("--embedding-dim", type=int, default=96)
    parser.add_argument("--min-term-support", type=int, default=6)
    parser.add_argument("--min-event-records", type=int, default=8)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--store-shards",
        type=int,
        default=None,
        help="shard count for the document store (default: REPRO_STORE_SHARDS or 4)",
    )
    parser.add_argument(
        "--retry-attempts",
        type=int,
        default=3,
        help="max attempts per pipeline stage (repro.resilience retry policy)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="PATH",
        default=None,
        help="persist per-stage checkpoints under PATH as the run progresses "
        "(see docs/resilience.md)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from the checkpoints in --checkpoint-dir, skipping "
        "completed stages (stale checkpoints are invalidated)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="enable repro.obs tracing and write the snapshot JSON to PATH "
        "(render with `python -m repro.obs report PATH`)",
    )
    parser.add_argument(
        "--nn-dtype",
        choices=("float32", "float64"),
        default=None,
        help="NN compute dtype (default: REPRO_NN_DTYPE or float64; float32 "
        "is the opt-in raw-speed training path, see docs/performance.md)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Audience-interest prediction pipeline (EDBT 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic world snapshot")
    gen.add_argument("--articles", type=int, default=800)
    gen.add_argument("--tweets", type=int, default=3000)
    gen.add_argument("--users", type=int, default=200)
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument(
        "--store-shards",
        type=int,
        default=None,
        help="shard count for the generated world's store",
    )
    gen.add_argument("--out", required=True, help="snapshot directory")
    gen.set_defaults(func=cmd_generate)

    topics = sub.add_parser("topics", help="extract news topics (NMF)")
    _add_pipeline_options(topics)
    topics.set_defaults(func=cmd_topics)

    events = sub.add_parser("events", help="detect events (MABED)")
    _add_pipeline_options(events)
    events.add_argument("--medium", choices=("news", "twitter"), default="twitter")
    events.set_defaults(func=cmd_events)

    run = sub.add_parser("run", help="run the full pipeline")
    _add_pipeline_options(run)
    run.set_defaults(func=cmd_run)

    predict = sub.add_parser("predict", help="train an audience-interest model")
    _add_pipeline_options(predict)
    predict.add_argument("--variant", default="A2")
    predict.add_argument("--network", default="MLP 1")
    predict.add_argument("--target", choices=("likes", "retweets"), default="likes")
    predict.add_argument("--epochs", type=int, default=40)
    predict.add_argument("--batch-size", type=int, default=256)
    predict.set_defaults(func=cmd_predict)

    ingest = sub.add_parser(
        "ingest",
        help="append JSONL records to a snapshot via the streaming ingest API",
    )
    _add_pipeline_options(ingest)
    ingest.add_argument(
        "--input", required=True, help="JSONL file of records to append"
    )
    ingest.add_argument(
        "--collection", choices=("news", "tweets"), default="tweets"
    )
    ingest.add_argument(
        "--allowed-lateness-minutes",
        type=float,
        default=0.0,
        help="watermark slack: records older than max(created_at) minus "
        "this are dropped as late",
    )
    ingest.add_argument(
        "--cycle",
        action="store_true",
        help="run one incremental pipeline cycle after the append",
    )
    ingest.set_defaults(func=cmd_ingest)

    serve = sub.add_parser(
        "serve", help="serve a trained artifact over HTTP (repro.serving)"
    )
    serve.add_argument(
        "--artifact", required=True, help="serving artifact directory"
    )
    serve.add_argument("--host", default=None)
    serve.add_argument("--port", type=int, default=None)
    serve.add_argument("--max-batch-size", type=int, default=None)
    serve.add_argument("--cache-size", type=int, default=None)
    serve.add_argument("--queue-size", type=int, default=None)
    serve.add_argument("--timeout-s", type=float, default=None)
    serve.add_argument(
        "--expect-fingerprint",
        default=None,
        help="refuse artifacts whose PipelineConfig fingerprint differs",
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=None,
        help="fleet replica count (default: REPRO_SERVE_REPLICAS or 2)",
    )
    serve.add_argument(
        "--router",
        choices=("round_robin", "least_loaded"),
        default=None,
        help="fleet routing policy (default: REPRO_SERVE_ROUTER or least_loaded)",
    )
    serve.add_argument(
        "--check-only",
        action="store_true",
        help="validate the artifact and exit without binding a server",
    )
    serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    When the subcommand carries ``--trace PATH``, observability is
    enabled for the duration of the command and the registry snapshot
    is written to PATH afterwards.
    """
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        return args.func(args)
    previous = obs.set_enabled(True)
    obs.get_registry().reset()
    try:
        code = args.func(args)
        if obs.obs_enabled():
            saved = obs.get_registry().save(trace_path)
            print(
                f"trace written to {saved}; render with "
                f"`python -m repro.obs report {saved}`"
            )
        return code
    finally:
        obs.set_enabled(previous)


if __name__ == "__main__":
    sys.exit(main())
