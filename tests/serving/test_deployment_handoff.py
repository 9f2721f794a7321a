"""DeploymentSimulator -> serving artifact handoff (``serve=`` param).

The §4.9 loop retrains every refresh cycle; with ``serve=`` it also
exports a loadable serving artifact, closing the offline/online loop:
the artifact a cycle writes is immediately servable and scores tweets
exactly like the cycle's own model.
"""

from datetime import timedelta

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.deployment import DeploymentSimulator
from repro.datagen import WorldConfig, build_world
from repro.serving import (
    FleetConfig,
    FleetService,
    ModelRegistry,
    ServingClient,
    ServingConfig,
    load_artifact,
)


@pytest.fixture(scope="module")
def deploy_world():
    return build_world(
        WorldConfig(n_articles=700, n_tweets=2200, n_users=120, seed=17)
    )


@pytest.fixture(scope="module")
def deploy_config():
    return PipelineConfig(
        n_topics=6,
        n_news_events=12,
        n_twitter_events=18,
        embedding_dim=32,
        min_term_support=3,
        min_event_records=3,
        max_epochs=6,
        seed=11,
    )


@pytest.fixture(scope="module")
def handoff(tmp_path_factory, deploy_world, deploy_config):
    """One serve-enabled deployment run; returns (report, serve_dir)."""
    serve_dir = str(tmp_path_factory.mktemp("deploy") / "artifact")
    simulator = DeploymentSimulator(
        deploy_config, refresh=timedelta(days=10), variant="A2"
    )
    report = simulator.run(
        deploy_world, n_cycles=1, start_fraction=1.0, serve=serve_dir
    )
    return report, serve_dir


class TestServeHandoff:
    def test_trained_cycle_exports_artifact(self, handoff):
        report, serve_dir = handoff
        assert any(c.trained for c in report.cycles)
        artifact = load_artifact(serve_dir)
        assert artifact.variant == "A2"
        assert artifact.network == "MLP 1"
        assert artifact.metadata["cycle"] == 0
        assert "validation_accuracy" in artifact.metadata

    def test_artifact_is_servable(self, handoff, deploy_world):
        _, serve_dir = handoff
        registry = ModelRegistry()
        registry.load(serve_dir)
        service = FleetService(
            registry,
            ServingConfig(max_batch_size=8),
            FleetConfig(replicas=1),
        )
        client = ServingClient(service)
        response = client.predict(
            ["news", "story"], followers=500, timeout_s=10.0
        )
        service.close()
        probabilities = np.asarray(response.probabilities)
        assert probabilities.shape == (3,)
        assert np.isfinite(probabilities).all()
        assert probabilities.sum() == pytest.approx(1.0, abs=1e-9)

    def test_serve_true_requires_checkpoint_dir(self, deploy_world, deploy_config):
        simulator = DeploymentSimulator(deploy_config)
        with pytest.raises(ValueError, match="serve=True requires"):
            simulator.run(deploy_world, n_cycles=1, serve=True)

    def test_serve_true_lands_under_checkpoint_dir(
        self, tmp_path_factory, deploy_world, deploy_config
    ):
        import os

        checkpoint_dir = str(tmp_path_factory.mktemp("ckpt"))
        simulator = DeploymentSimulator(
            deploy_config, refresh=timedelta(days=10), variant="A2"
        )
        report = simulator.run(
            deploy_world,
            n_cycles=1,
            start_fraction=1.0,
            checkpoint_dir=checkpoint_dir,
            serve=True,
        )
        assert any(c.trained for c in report.cycles)
        artifact = load_artifact(os.path.join(checkpoint_dir, "artifact"))
        assert artifact.input_dim > 0
