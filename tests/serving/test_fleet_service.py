"""FleetService end-to-end: parity, retries, ejection, HTTP surface.

The first test here is the contract that makes everything else safe to
ship: one replica and N replicas both answer **bitwise identically** to
the offline ``Sequential.predict(X, batch_size=B, pad_to=B)``, because
every replica's layer stack is a zero-copy view of the same published
weights and features flow through the same cache/encode path.
"""

import threading

import numpy as np
import pytest

from repro.resilience import faults
from repro.serving import (
    AdmissionRejected,
    BadRequest,
    FleetConfig,
    FleetService,
    HTTPServingClient,
    ModelRegistry,
    ModelUnavailable,
    ServingClient,
    ServingConfig,
    ServingError,
    ServingServer,
)

CONFIG = dict(max_batch_size=8)


def _registry(artifact_dirs):
    registry = ModelRegistry()
    registry.load(artifact_dirs[0])
    return registry


def _fleet(artifact_dirs, **overrides):
    knobs = dict(replicas=2)
    knobs.update(overrides)
    return FleetService(
        _registry(artifact_dirs), ServingConfig(**CONFIG), FleetConfig(**knobs)
    )


def _predict(service, record, **kwargs):
    return ServingClient(service).predict(
        record.tokens,
        followers=record.followers,
        created_at=record.created_at,
        vocabulary=record.event_vocabulary,
        **kwargs,
    )


class TestParity:
    def test_fleet_matches_single_worker_bitwise(
        self, artifact_dirs, serving_records, serving_dataset, trained_models
    ):
        pad = CONFIG["max_batch_size"]
        offline = trained_models[0].predict(
            serving_dataset.X[:24], batch_size=pad, pad_to=pad
        )
        for replicas in (1, 3):
            with _fleet(artifact_dirs, replicas=replicas) as fleet:
                for i, record in enumerate(serving_records[:24]):
                    response = _predict(fleet, record)
                    # exact, not approx
                    assert np.array_equal(
                        np.asarray(response.probabilities), offline[i]
                    ), f"{replicas} replica(s), record {i}"
                    assert response.label == int(np.argmax(offline[i]))
                    assert response.model_version == 1

    def test_swap_propagates_to_every_replica(
        self, artifact_dirs, serving_records
    ):
        with _fleet(artifact_dirs, replicas=3, router="round_robin") as fleet:
            assert _predict(fleet, serving_records[0]).model_version == 1
            info = fleet.swap(artifact_dirs[1])
            assert info["version"] == 2
            # round_robin guarantees each replica serves at least once.
            for record in serving_records[:6]:
                assert _predict(fleet, record).model_version == 2


class TestReplicaFailures:
    def test_transient_replica_failure_is_retried_transparently(
        self, artifact_dirs, serving_records
    ):
        plan = faults.FaultPlan(
            seed=0,
            specs=(
                faults.FaultSpec(
                    sites="serving.fleet.replica.0", rate=1.0, max_triggers=2
                ),
            ),
        )
        with _fleet(artifact_dirs, eject_after=3) as fleet:
            with faults.overridden(plan):
                response = _predict(fleet, serving_records[0])
            assert response.model_version == 1
            health = fleet.replicas[0].describe()
            assert health["failed"] == 2
            assert not health["ejected"]  # 2 strikes < eject_after=3

    def test_failing_replica_ejects_then_probe_readmits(
        self, artifact_dirs, serving_records
    ):
        plan = faults.FaultPlan(
            seed=0,
            specs=(
                faults.FaultSpec(
                    sites="serving.fleet.replica.0", rate=1.0, max_triggers=1
                ),
            ),
        )
        with _fleet(artifact_dirs, eject_after=1, probe_after=2) as fleet:
            with faults.overridden(plan):
                for record in serving_records[:8]:
                    assert _predict(fleet, record).model_version == 1
            assert fleet.router.healthy_indices() == [0, 1]
            health = fleet.replicas[0].describe()
            assert not health["ejected"]
            assert health["failed"] == 1

    def test_dead_pool_degrades_health_and_raises(
        self, artifact_dirs, serving_records
    ):
        plan = faults.FaultPlan(
            seed=0,
            specs=(faults.FaultSpec(sites="serving.fleet.replica.*", rate=1.0),),
        )
        with _fleet(artifact_dirs, eject_after=1, probe_after=10_000) as fleet:
            with faults.overridden(plan):
                with pytest.raises(ServingError):
                    _predict(fleet, serving_records[0])
                assert fleet.healthz()["status"] == "degraded"
                assert fleet.healthz()["healthy_replicas"] == 0
                with pytest.raises(ModelUnavailable, match="all replicas"):
                    _predict(fleet, serving_records[1])

    def test_dead_pool_probes_back_to_health(self, artifact_dirs, serving_records):
        """A fleet whose only replica is ejected keeps probing it.

        Probes ride on routed requests; the requests a dead pool refuses
        must spend that budget too, or the pool never recovers.
        """
        plan = faults.FaultPlan(
            seed=0,
            specs=(
                faults.FaultSpec(
                    sites="serving.fleet.replica.0", rate=1.0, max_triggers=1
                ),
            ),
        )
        with _fleet(
            artifact_dirs, replicas=1, eject_after=1, probe_after=2
        ) as fleet:
            with faults.overridden(plan):
                with pytest.raises(ServingError):
                    _predict(fleet, serving_records[0])
                assert fleet.healthz()["status"] == "degraded"
                outcomes = []
                for record in serving_records[1:13]:
                    try:
                        outcomes.append(_predict(fleet, record).model_version)
                    except ModelUnavailable:
                        outcomes.append(None)
            # The retry of request 0 starts the probe budget; request 1
            # is refused; request 2 spends the budget, and the probe
            # re-admits the replica in time to serve it.
            assert outcomes == [None] + [1] * 11
            assert fleet.healthz()["status"] == "ok"
            assert fleet.replicas[0].describe()["failed"] == 1


class TestAdmission:
    def test_rate_limit_sheds_normal_but_not_high(
        self, artifact_dirs, serving_records
    ):
        with _fleet(
            artifact_dirs, rate_limit_rps=0.001, rate_burst=1.0
        ) as fleet:
            assert _predict(fleet, serving_records[0]).model_version == 1
            with pytest.raises(AdmissionRejected) as excinfo:
                _predict(fleet, serving_records[1])
            assert excinfo.value.reason == "rate"
            # high priority bypasses the bucket entirely.
            response = _predict(fleet, serving_records[2], priority="high")
            assert response.model_version == 1
            metrics = fleet.metrics()
            assert metrics["admission"]["shed"]["rate"] == 1
            assert metrics["errors"] == 1
            assert metrics["responses"] == 2

    def test_unknown_priority_is_bad_request(self, artifact_dirs, serving_records):
        with _fleet(artifact_dirs) as fleet:
            with pytest.raises(BadRequest, match="unknown priority"):
                _predict(fleet, serving_records[0], priority="urgent")


class TestConcurrency:
    def test_hammer_accounts_for_every_request(
        self, artifact_dirs, serving_records
    ):
        threads, per_thread = 8, 10
        with _fleet(artifact_dirs, replicas=2) as fleet:
            client = ServingClient(fleet)
            failures = []
            barrier = threading.Barrier(threads)

            def worker(worker_id):
                barrier.wait()
                for i in range(per_thread):
                    record = serving_records[
                        (worker_id * per_thread + i) % len(serving_records)
                    ]
                    try:
                        response = client.predict(
                            record.tokens,
                            followers=record.followers,
                            created_at=record.created_at,
                            vocabulary=record.event_vocabulary,
                            timeout_s=30.0,
                        )
                        assert response.model_version == 1
                    except Exception as exc:  # noqa: BLE001 - collected
                        failures.append(exc)

            pool = [
                threading.Thread(target=worker, args=(w,)) for w in range(threads)
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()

            assert failures == []
            metrics = fleet.metrics()
            assert metrics["responses"] == threads * per_thread
            assert metrics["errors"] == 0
            router = metrics["router"]
            assert router["routed"] == threads * per_thread
            assert sum(router["routed_per_replica"]) == threads * per_thread

    def test_metrics_shape(self, artifact_dirs, serving_records):
        with _fleet(artifact_dirs) as fleet:
            _predict(fleet, serving_records[0])
            metrics = fleet.metrics()
            for key in (
                "responses",
                "errors",
                "swaps",
                "replicas",
                "batch_latency_s",
                "admission",
                "router",
                "canary",
                "schedulers",
                "cache",
                "cache_hit_rate",
            ):
                assert key in metrics, key
            assert metrics["replicas"] == 2
            assert len(metrics["schedulers"]) == 2
            assert metrics["batch_latency_s"] > 0.0
            assert metrics["canary"]["state"] == "idle"


class TestHTTPFleet:
    @pytest.fixture()
    def fleet_server(self, artifact_dirs):
        # Disarm the wall-clock latency gate so the promote outcome is
        # pinned by the error/delta gates alone.
        fleet = _fleet(artifact_dirs, canary_max_latency_ratio=50.0)
        server = ServingServer(fleet, port=0).start()
        yield server
        server.stop()
        fleet.close()

    @pytest.fixture()
    def client(self, fleet_server):
        return HTTPServingClient(fleet_server.url)

    def test_healthz_reports_the_pool(self, client):
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["replicas"] == 2
        assert body["healthy_replicas"] == 2

    def test_predict_accepts_priority(self, client, serving_records):
        record = serving_records[0]
        body = client.predict(
            record.tokens, followers=record.followers, priority="high"
        )
        assert body["model_version"] == 1

    def test_bad_priority_is_400(self, client, serving_records):
        with pytest.raises(BadRequest):
            client.predict(serving_records[0].tokens, priority="urgent")

    def test_canary_lifecycle_over_http(
        self, client, artifact_dirs, serving_records
    ):
        status = client.canary_start(
            artifact_dirs[1], mode="canary", fraction=0.5, window=5
        )
        assert status["state"] == "canary"
        for i in range(30):
            if client.canary_status()["state"] == "promoted":
                break
            record = serving_records[i % len(serving_records)]
            client.predict(record.tokens, followers=record.followers)
        status = client.canary_status()
        assert status["state"] == "promoted"
        assert client.healthz()["model"]["version"] == 2

    def test_canary_abort_over_http(self, client, artifact_dirs):
        client.canary_start(artifact_dirs[1], mode="shadow", window=10_000)
        status = client.canary_abort()
        assert status["state"] == "rolled_back"
