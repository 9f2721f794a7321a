"""Operator-error paths of ``repro serve`` (ISSUE 5 satellite).

A missing or corrupt artifact directory, or a fingerprint that does not
match the one the artifact was trained under, must exit non-zero with a
clear one-line message — never a traceback — because the command runs
unattended next to the §4.9 refresh loop.
"""

import json
import os

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import small_config
from repro.embeddings import PretrainedEmbeddings
from repro.nn import build_paper_network
from repro.serving import FleetConfig, ServingConfig, save_artifact


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    """A tiny but fully valid serving artifact."""
    directory = str(tmp_path_factory.mktemp("artifact"))
    embeddings = PretrainedEmbeddings.deterministic(["alpha", "beta"], dim=12)
    model = build_paper_network("MLP 1", input_dim=20, seed=0)
    model.build((20,))
    save_artifact(
        directory, model, embeddings, "A2", "MLP 1", config=small_config()
    )
    return directory


def _serve_error(argv):
    """Run ``repro serve`` argv; returns the SystemExit payload."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    return excinfo.value.code


class TestServeErrors:
    def test_missing_artifact_dir(self, tmp_path):
        missing = str(tmp_path / "nope")
        code = _serve_error(["serve", "--artifact", missing, "--check-only"])
        assert isinstance(code, str)  # SystemExit(message) -> exit code 1
        assert "cannot serve" in code and "nope" in code
        assert "Traceback" not in code

    def test_corrupt_metadata_json(self, artifact_dir, tmp_path):
        corrupt = tmp_path / "corrupt"
        corrupt.mkdir()
        for name in os.listdir(artifact_dir):
            data = open(os.path.join(artifact_dir, name), "rb").read()
            (corrupt / name).write_bytes(data)
        (corrupt / "artifact.json").write_text("{not json", encoding="utf-8")
        code = _serve_error(["serve", "--artifact", str(corrupt), "--check-only"])
        assert isinstance(code, str)
        assert "corrupt" in code

    def test_truncated_weights(self, artifact_dir, tmp_path):
        broken = tmp_path / "broken"
        broken.mkdir()
        for name in os.listdir(artifact_dir):
            data = open(os.path.join(artifact_dir, name), "rb").read()
            (broken / name).write_bytes(data)
        (broken / "weights.npz").write_bytes(b"\x00\x01trash")
        code = _serve_error(["serve", "--artifact", str(broken), "--check-only"])
        assert isinstance(code, str)
        assert "weights.npz" in code

    def test_metadata_missing_fields(self, artifact_dir, tmp_path):
        sparse = tmp_path / "sparse"
        sparse.mkdir()
        for name in os.listdir(artifact_dir):
            data = open(os.path.join(artifact_dir, name), "rb").read()
            (sparse / name).write_bytes(data)
        meta = json.loads((sparse / "artifact.json").read_text())
        del meta["network"]
        (sparse / "artifact.json").write_text(json.dumps(meta))
        code = _serve_error(["serve", "--artifact", str(sparse), "--check-only"])
        assert isinstance(code, str)
        assert "missing fields" in code

    def test_fingerprint_mismatch(self, artifact_dir):
        code = _serve_error(
            [
                "serve",
                "--artifact",
                artifact_dir,
                "--check-only",
                "--expect-fingerprint",
                "0" * 64,
            ]
        )
        assert isinstance(code, str)
        assert "fingerprint mismatch" in code

    def test_invalid_config_values(self, artifact_dir):
        code = _serve_error(
            ["serve", "--artifact", artifact_dir, "--check-only", "--max-batch-size", "0"]
        )
        assert isinstance(code, str)
        assert "invalid serving configuration" in code

    def test_removed_env_knob_is_rejected(self, artifact_dir, monkeypatch):
        """A stale ``REPRO_SERVE_MAX_WAIT_MS`` must not become a silent no-op."""
        monkeypatch.setenv("REPRO_SERVE_MAX_WAIT_MS", "2")
        code = _serve_error(["serve", "--artifact", artifact_dir, "--check-only"])
        assert isinstance(code, str)
        assert "invalid serving configuration" in code
        assert "REPRO_SERVE_MAX_WAIT_MS" in code
        assert "Traceback" not in code
        with pytest.raises(ValueError, match="REPRO_SERVE_MAX_WAIT_MS"):
            FleetConfig.from_env()

    def test_known_env_knobs_still_apply(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_BATCH", "8")
        monkeypatch.setenv("REPRO_SERVE_REPLICAS", "3")
        assert ServingConfig.from_env().max_batch_size == 8
        assert ServingConfig.from_env(max_batch_size=4).max_batch_size == 4
        assert FleetConfig.from_env().replicas == 3

    def test_serve_requires_artifact_flag(self):
        assert _serve_error(["serve"]) == 2  # argparse usage error


class TestServeSuccess:
    def test_check_only_accepts_valid_artifact(self, artifact_dir, capsys):
        assert main(["serve", "--artifact", artifact_dir, "--check-only"]) == 0
        out = capsys.readouterr().out
        assert "artifact OK" in out

    def test_check_only_accepts_matching_fingerprint(self, artifact_dir):
        meta = json.loads(
            open(os.path.join(artifact_dir, "artifact.json"), encoding="utf-8").read()
        )
        argv = [
            "serve",
            "--artifact",
            artifact_dir,
            "--check-only",
            "--expect-fingerprint",
            meta["fingerprint"],
        ]
        assert main(argv) == 0

    def test_weights_roundtrip_bitwise(self, artifact_dir):
        """The exported weights load back bit-for-bit."""
        from repro.serving import load_artifact

        artifact = load_artifact(artifact_dir)
        rebuilt = artifact.build_model()
        for saved, loaded in zip(artifact.weights, rebuilt.get_weights()):
            assert np.array_equal(saved, loaded)
