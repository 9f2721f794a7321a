"""ISSUE 5 acceptance: concurrent serving with bitwise offline parity.

Fires 240 requests from 8 client threads through the in-process
:class:`ServingClient` and asserts:

(a) every response bitwise-matches the offline
    ``Sequential.predict(X, batch_size=B, pad_to=B)`` output for the
    same tweet (for whichever model version answered it);
(b) micro-batching engaged — batches formed are > 1 on average;
(c) a mid-load hot-swap to a second model version loses zero requests,
    and post-swap responses match the new model offline.
"""

import threading

import numpy as np
import pytest

from repro.serving import (
    FleetConfig,
    FleetService,
    ModelRegistry,
    ServingClient,
    ServingConfig,
)

N_THREADS = 8
REQUESTS_PER_THREAD = 30
N_REQUESTS = N_THREADS * REQUESTS_PER_THREAD  # 240 >= the required 200
PAD = 16  # serving max_batch_size == the fixed forward row count


@pytest.fixture(scope="module")
def offline_references(trained_models, serving_dataset):
    """Per-version offline predictions for every record, bitwise refs."""
    v1, v2 = trained_models
    return {
        1: v1.predict(serving_dataset.X, batch_size=PAD, pad_to=PAD),
        2: v2.predict(serving_dataset.X, batch_size=PAD, pad_to=PAD),
    }


def test_concurrent_load_with_midflight_swap(
    artifact_dirs, serving_records, offline_references
):
    registry = ModelRegistry()
    registry.load(artifact_dirs[0])
    config = ServingConfig(
        max_batch_size=PAD, max_queue=512, timeout_s=30.0
    )
    service = FleetService(registry, config, FleetConfig(replicas=1))
    client = ServingClient(service)

    responses = [None] * N_REQUESTS
    errors = []
    completed = threading.Semaphore(0)
    start_gate = threading.Barrier(N_THREADS + 1)

    def worker(thread_index):
        start_gate.wait()
        for j in range(REQUESTS_PER_THREAD):
            i = thread_index * REQUESTS_PER_THREAD + j
            record = serving_records[i % len(serving_records)]
            try:
                responses[i] = client.predict(
                    record.tokens,
                    followers=record.followers,
                    created_at=record.created_at,
                    vocabulary=record.event_vocabulary,
                    timeout_s=30.0,
                )
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append((i, exc))
            completed.release()

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(N_THREADS)]
    for thread in threads:
        thread.start()
    start_gate.wait()

    # Swap mid-load: wait until ~1/4 of the requests have completed so
    # both versions demonstrably serve traffic.
    for _ in range(N_REQUESTS // 4):
        completed.acquire()
    swap_info = client.swap(artifact_dirs[1])
    assert swap_info["version"] == 2

    for thread in threads:
        thread.join()
    service.close()

    # (c) zero lost requests under the swap
    assert errors == []
    assert all(response is not None for response in responses)
    metrics = service.metrics()
    assert metrics["errors"] == 0
    assert metrics["responses"] == N_REQUESTS

    # (a) every response bitwise-matches its version's offline output
    versions_seen = set()
    for i, response in enumerate(responses):
        record_index = i % len(serving_records)
        versions_seen.add(response.model_version)
        reference = offline_references[response.model_version][record_index]
        assert np.array_equal(np.asarray(response.probabilities), reference), (
            f"request {i} (v{response.model_version}) diverged from offline"
        )

    # both versions actually served traffic around the swap point
    assert versions_seen == {1, 2}

    # (b) micro-batching engaged
    scheduler = service.replicas[0].scheduler
    assert scheduler.batches < N_REQUESTS
    assert scheduler.mean_batch_size > 1.0

    # repeated records hit the per-version feature cache
    assert metrics["cache"]["documents"]["hits"] > 0


def test_served_probabilities_are_pure_functions_of_the_tweet(
    artifact_dirs, serving_records, offline_references
):
    """The same record served twice (cold + cached) yields identical
    bits — the cache returns replays, not recomputes."""
    registry = ModelRegistry()
    registry.load(artifact_dirs[0])
    service = FleetService(
        registry,
        ServingConfig(max_batch_size=PAD),
        FleetConfig(replicas=1),
    )
    client = ServingClient(service)
    record = serving_records[3]
    kwargs = dict(
        followers=record.followers,
        created_at=record.created_at,
        vocabulary=record.event_vocabulary,
    )
    first = client.predict(record.tokens, **kwargs)
    second = client.predict(record.tokens, **kwargs)
    service.close()
    assert np.array_equal(first.probabilities, second.probabilities)
    assert np.array_equal(
        np.asarray(first.probabilities), offline_references[1][3]
    )
