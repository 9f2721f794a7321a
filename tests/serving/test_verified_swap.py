"""The one deploy verb refuses an artifact that fails its probe check.

Every artifact pins seeded probe rows with the outputs its network gave
them at export.  A copy whose ``weights.npz`` is still a perfectly valid
npz but carries one corrupted weight must be refused by ``POST /swap``
(the old version keeps answering, bit for bit) and by ``repro serve``,
and an artifact of the probe-less format version 1 is refused outright.
"""

import json
import os
import shutil
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.nn import build_paper_network
from repro.serving import (
    ArtifactError,
    FleetConfig,
    FleetService,
    HTTPServingClient,
    ModelRegistry,
    ServingConfig,
    ServingServer,
    SwapError,
    load_artifact,
    save_artifact,
)


@pytest.fixture()
def corrupt_artifact(artifact_dirs, tmp_path):
    """A copy of v2 with one first-layer weight changed, still valid npz."""
    directory = tmp_path / "corrupt"
    shutil.copytree(artifact_dirs[1], directory)
    weights_path = directory / "weights.npz"
    with np.load(weights_path) as data:
        arrays = {name: data[name] for name in data.files}
    arrays["w0"] = arrays["w0"].copy()
    arrays["w0"][0, 0] += 0.5
    np.savez(weights_path, **arrays)
    return str(directory)


@pytest.fixture()
def v1_artifact(artifact_dirs, tmp_path):
    """v2 rewritten in the probe-less format version 1."""
    directory = tmp_path / "v1-format"
    shutil.copytree(artifact_dirs[1], directory)
    meta_path = directory / "artifact.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["version"] = 1
    meta.pop("dtype", None)
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    (directory / "probes.npz").unlink(missing_ok=True)
    return str(directory)


@pytest.fixture()
def client(artifact_dirs):
    registry = ModelRegistry()
    registry.load(artifact_dirs[0])
    service = FleetService(
        registry, ServingConfig(max_batch_size=8), FleetConfig(replicas=2)
    )
    server = ServingServer(service, port=0).start()
    yield HTTPServingClient(server.url)
    server.stop()


def _predict_all(client, records):
    return [
        client.predict(
            record.tokens,
            followers=record.followers,
            created_at=record.created_at.isoformat(),
            vocabulary=record.event_vocabulary,
        )
        for record in records
    ]


class TestCorruptWeights:
    def test_corrupt_copy_still_parses(self, corrupt_artifact):
        artifact = load_artifact(corrupt_artifact)
        with pytest.raises(ArtifactError, match="probe check failed"):
            artifact.build_model()

    def test_swap_is_refused_and_old_version_keeps_serving(
        self, client, corrupt_artifact, serving_records
    ):
        records = serving_records[:6]
        before_health = client.healthz()["model"]
        before = _predict_all(client, records)
        with pytest.raises(SwapError, match="probe check failed"):
            client.swap(corrupt_artifact)
        after_health = client.healthz()["model"]
        assert after_health["fingerprint"] == before_health["fingerprint"]
        assert after_health["version"] == before_health["version"] == 1
        after = _predict_all(client, records)
        for old, new in zip(before, after):
            assert new["model_version"] == old["model_version"] == 1
            # exact, not approx
            assert new["probabilities"] == old["probabilities"]
        assert client.metrics()["swaps"] == 0

    def test_swap_answers_409(self, client, corrupt_artifact):
        request = urllib.request.Request(
            client.base_url + "/swap",
            data=json.dumps({"artifact": corrupt_artifact}).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 409
        assert json.loads(excinfo.value.read())["error"] == "SwapError"

    def test_check_only_exits_with_clean_message(self, corrupt_artifact):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--artifact", corrupt_artifact, "--check-only"])
        message = excinfo.value.code
        assert isinstance(message, str)  # SystemExit(message) -> exit code 1
        assert "cannot serve" in message and "probe check failed" in message
        assert "Traceback" not in message

    def test_serve_refuses_before_binding(self, corrupt_artifact):
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--artifact",
             corrupt_artifact, "--port", "0"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode != 0
        assert "probe check failed" in result.stderr
        assert "Traceback" not in result.stderr
        assert "serving on http://" not in result.stdout


class TestFormatVersion:
    def test_v1_artifact_is_refused(self, v1_artifact):
        with pytest.raises(ArtifactError, match="version 1 unsupported"):
            load_artifact(v1_artifact)

    def test_v1_artifact_swap_is_refused(self, client, v1_artifact):
        with pytest.raises(SwapError, match="version 1 unsupported"):
            client.swap(v1_artifact)
        assert client.healthz()["model"]["version"] == 1


class TestPinnedDtype:
    """Load and serve in the dtype recorded at export, whatever the env says."""

    def test_float32_export_loads_without_env(
        self, monkeypatch, serving_dataset, serving_embeddings, serving_records, tmp_path
    ):
        monkeypatch.setenv("REPRO_NN_DTYPE", "float32")
        model = build_paper_network(
            "MLP 1", input_dim=serving_dataset.n_features, seed=5
        )
        model.build((serving_dataset.n_features,))
        directory = save_artifact(
            str(tmp_path / "f32"), model, serving_embeddings, "A2", "MLP 1"
        )
        expected = load_artifact(directory).build_model().predict(serving_dataset.X)
        monkeypatch.delenv("REPRO_NN_DTYPE")
        registry = ModelRegistry()
        active = registry.load(directory)
        assert active.model.dtype == np.dtype("float32")
        assert active.replica_model().dtype == np.dtype("float32")
        assert active.predict(serving_dataset.X).tobytes() == expected.tobytes()

    def test_float64_export_loads_and_swaps_under_float32_env(
        self, monkeypatch, artifact_dirs
    ):
        monkeypatch.setenv("REPRO_NN_DTYPE", "float32")
        registry = ModelRegistry()
        registry.load(artifact_dirs[0])
        swapped = registry.swap(artifact_dirs[1])
        assert swapped.model.dtype == np.dtype("float64")
        assert swapped.replica_model().dtype == np.dtype("float64")

    def test_float64_export_serves_under_float32_env(
        self, monkeypatch, artifact_dirs
    ):
        monkeypatch.setenv("REPRO_NN_DTYPE", "float32")
        assert main(["serve", "--artifact", artifact_dirs[0], "--check-only"]) == 0

    @pytest.mark.parametrize("value", ["float16", None, 32])
    def test_unusable_dtype_is_refused(self, artifact_dirs, tmp_path, value):
        directory = tmp_path / "bad-dtype"
        shutil.copytree(artifact_dirs[0], directory)
        meta_path = directory / "artifact.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["dtype"] = value
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(ArtifactError, match="invalid artifact.json"):
            load_artifact(str(directory))
