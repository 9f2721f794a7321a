"""A serving process loads only the serving layers.

``repro serve`` answers ``/predict`` and ``/swap`` from an artifact
directory; it needs numpy, ``repro.serving`` and the numpy-only packages
under it (``datasets``, ``embeddings``, ``nn``, ``obs``, ``resilience``,
``tools``, ``parallel``).  The probe runs behind the hook of
:mod:`tests.import_probe`, which here also refuses scipy, the pipeline
packages and the stage codecs for the whole run and records every
refusal, so an import that a ``try``/``except ImportError`` swallows
still fails the test.
"""

from tests.import_probe import requires_stdlib_names, run_probe

pytestmark = requires_stdlib_names

BLOCKED = (
    "scipy",
    "repro.core",
    "repro.topics",
    "repro.events",
    "repro.store",
    "repro.text",
    "repro.weighting",
    "repro.datagen",
    "repro.streaming",
    "repro.analysis",
    "repro.network",
    "repro.resilience.codecs",
)

_PROBE = """
import json
import urllib.request
from datetime import datetime

import numpy as np

from repro.cli import main
from repro.datasets import EventTweet
from repro.datasets.builders import encode_record
from repro.embeddings import PretrainedEmbeddings
from repro.nn import build_paper_network
from repro.serving import (
    FleetConfig,
    FleetService,
    ModelRegistry,
    ServingConfig,
    ServingServer,
    save_artifact,
)

root = sys.argv[1]

words = [f"term{i}" for i in range(40)]
embeddings = PretrainedEmbeddings.deterministic(words, dim=8)
record = EventTweet(
    tokens=words[:5], event_vocabulary=set(words[:5]), magnitudes={},
    author="user0", followers=10, likes=0, retweets=0,
    created_at=datetime(2021, 2, 1),
)
input_dim = encode_record(record, embeddings, "A2").shape[0]
artifacts = []
for seed in (1, 2):
    model = build_paper_network("MLP 1", input_dim=input_dim, seed=seed)
    model.build((input_dim,))
    artifacts.append(
        save_artifact(f"{root}/v{seed}", model, embeddings, "A2", "MLP 1")
    )

assert main(["serve", "--artifact", artifacts[0], "--check-only"]) == 0

registry = ModelRegistry()
registry.load(artifacts[0])
service = FleetService(
    registry, ServingConfig(max_batch_size=8), FleetConfig(replicas=1)
)
server = ServingServer(service, port=0).start()


def post(path, payload):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


try:
    body = post("/predict", {"tokens": words[:5], "followers": 10})
    assert body["model_version"] == 1, body
    assert np.isclose(sum(body["probabilities"]), 1.0), body
    assert post("/swap", {"artifact": artifacts[1]})["version"] == 2
    assert post("/predict", {"tokens": words[:5]})["model_version"] == 2
finally:
    server.stop()

try:
    main(["--help"])
except SystemExit as exc:
    assert exc.code in (0, None), exc.code

assert not refused, f"serving tried to import {sorted(set(refused))}"
loaded = sorted(m for m in sys.modules if is_blocked(m))
assert not loaded, loaded
"""


def test_serving_process_imports_no_pipeline_layer(tmp_path):
    proc = run_probe(_PROBE, str(tmp_path), blocked=BLOCKED)
    assert proc.returncode == 0, proc.stdout + proc.stderr
