#!/usr/bin/env python3
"""Continuous deployment — the §4.9 refresh loop with checkpoints.

The paper's system refreshes its corpora every 2 hours and retrains from
checkpoints so models stay current without full retraining.  This example
simulates that loop: the deployment starts with a 60% backlog of the
5-month world, then takes refresh steps, folding each step's new
documents into an incremental pipeline and warm-starting the
audience-interest model from the previous cycle's weights.

    python examples/continuous_deployment.py
"""

from datetime import timedelta

from repro import build_world
from repro.core import DeploymentSimulator
from repro.core.config import PipelineConfig
from repro.datagen import WorldConfig


def main() -> None:
    world = build_world(
        WorldConfig(n_articles=1500, n_tweets=5000, n_users=250, seed=29)
    )
    config = PipelineConfig(
        n_topics=12,
        n_news_events=20,
        n_twitter_events=40,
        embedding_dim=96,
        min_term_support=6,
        min_event_records=8,
        max_epochs=40,
        seed=29,
    )
    # Refresh every 12 simulated days so each cycle sees meaningfully new
    # data (the paper refreshes every 2 hours against a live firehose).
    simulator = DeploymentSimulator(
        config, refresh=timedelta(days=12), variant="A2", network="MLP 1"
    )
    print("Simulating 4 refresh cycles from a 60% backlog ...\n")
    report = simulator.run(world, n_cycles=4, start_fraction=0.6)
    print(report.summary())

    cold = report.cold_epochs()
    warm = report.warm_epochs()
    if cold and warm:
        print(
            f"\ncheckpoint effect: cold start took {cold[0]} epochs; "
            f"warm starts took {warm} — §4.9's motivation for "
            "checkpointed retraining."
        )


if __name__ == "__main__":
    main()
