"""The stdlib HTTP front-end: endpoint contract and error mapping."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serving import (
    BadRequest,
    FleetConfig,
    FleetService,
    HTTPServingClient,
    ModelRegistry,
    ServingConfig,
    ServingServer,
    SwapError,
)


@pytest.fixture()
def server(artifact_dirs):
    registry = ModelRegistry()
    registry.load(artifact_dirs[0])
    service = FleetService(
        registry,
        ServingConfig(max_batch_size=8),
        FleetConfig(replicas=1),
    )
    srv = ServingServer(service, port=0).start()
    yield srv
    srv.stop()


@pytest.fixture()
def client(server):
    return HTTPServingClient(server.url)


class TestEndpoints:
    def test_healthz(self, client):
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["model"]["version"] == 1
        assert body["model"]["variant"] == "A2"

    def test_predict_returns_distribution(self, client, serving_records):
        record = serving_records[0]
        body = client.predict(
            record.tokens,
            followers=record.followers,
            created_at=record.created_at.isoformat(),
            vocabulary=record.event_vocabulary,
        )
        assert body["model_version"] == 1
        assert body["label"] in (0, 1, 2)
        probabilities = np.asarray(body["probabilities"])
        assert probabilities.shape == (3,)
        assert probabilities.sum() == pytest.approx(1.0, abs=1e-9)

    def test_metrics_counts_requests(self, client, serving_records):
        record = serving_records[1]
        client.predict(record.tokens, followers=record.followers)
        body = client.metrics()
        assert body["responses"] >= 1
        assert body["errors"] == 0
        assert "cache" in body and len(body["schedulers"]) == 1
        assert set(body["latency_ms"]) == {"p50", "p95", "p99"}

    def test_swap_endpoint(self, client, artifact_dirs, serving_records):
        info = client.swap(artifact_dirs[1])
        assert info["version"] == 2
        record = serving_records[2]
        body = client.predict(record.tokens, followers=record.followers)
        assert body["model_version"] == 2


class TestErrorMapping:
    def test_unknown_path_is_400(self, client):
        with pytest.raises(BadRequest):
            client._call("GET", "/nope")

    def test_missing_tokens_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/predict",
            data=json.dumps({"followers": 3}).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"] == "BadRequest"

    def test_invalid_json_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/predict",
            data=b"{naked",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400

    def test_bad_created_at_is_400(self, client):
        with pytest.raises(BadRequest, match="ISO-8601"):
            client.predict(["a"], created_at="not-a-date")

    def test_swap_to_garbage_is_409(self, client, tmp_path):
        with pytest.raises(SwapError):
            client.swap(str(tmp_path / "void"))

    def test_error_statuses_match_exception_kinds(self, server):
        """The HTTP status is the one the exception class declares."""
        request = urllib.request.Request(
            server.url + "/swap",
            data=json.dumps({"artifact": "/definitely/not/there"}).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 409
        assert json.loads(excinfo.value.read())["error"] == "SwapError"

    @pytest.mark.parametrize(
        "path, body, message",
        [
            ("/predict", {"tokens": ["a"], "priority": "high"}, "'priority'"),
            ("/predict", {"tokens": ["a"], "follower": 3}, "'follower'"),
            ("/swap", {"artifact": "/x", "mode": "canary"}, "'mode'"),
            ("/canary", {"artifact": "/x"}, "unknown path"),
        ],
        ids=["predict-priority", "predict-typo", "swap-mode", "canary-path"],
    )
    def test_unread_key_or_path_is_400(self, server, path, body, message):
        """A key no endpoint reads is refused by name, never ignored."""
        request = urllib.request.Request(
            server.url + path,
            data=json.dumps(body).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400
        reply = json.loads(excinfo.value.read())
        assert reply["error"] == "BadRequest"
        assert message in reply["message"]
