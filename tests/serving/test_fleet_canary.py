"""Canary/shadow deployments: pinned-seed promote and rollback.

The traffic splitter hashes ``seed:index``, so assignment — and
therefore the promote/rollback outcome — is a pure function of the
seed and the request order.  Timing-sensitive gates (the latency-ratio
check) are disarmed via ``canary_max_latency_ratio`` so every outcome
asserted here is deterministic by construction.
"""

import time

import pytest

from repro.resilience import faults
from repro.serving import (
    BadRequest,
    FleetConfig,
    FleetService,
    ModelRegistry,
    ServingClient,
    ServingConfig,
    ServingError,
    traffic_split,
)

#: Fault plan that breaks every batch on the candidate replica.
BROKEN_CANDIDATE = faults.FaultPlan(
    seed=0,
    specs=(faults.FaultSpec(sites="serving.fleet.replica.candidate", rate=1.0),),
)


def _fleet(artifact_dirs, **overrides):
    registry = ModelRegistry()
    registry.load(artifact_dirs[0])
    knobs = dict(
        replicas=2,
        canary_seed=0,
        # Disarm the wall-clock latency gate: outcomes must be pinned
        # by error rate / prediction delta alone.
        canary_max_latency_ratio=50.0,
    )
    knobs.update(overrides)
    return FleetService(
        registry,
        ServingConfig(max_batch_size=8),
        FleetConfig(**knobs),
    )


def _drive(fleet, serving_records, n, timeout_s=10.0):
    """Send n predictions; returns the responses."""
    client = ServingClient(fleet)
    responses = []
    for i in range(n):
        record = serving_records[i % len(serving_records)]
        responses.append(
            client.predict(
                record.tokens,
                followers=record.followers,
                created_at=record.created_at,
                vocabulary=record.event_vocabulary,
                timeout_s=timeout_s,
            )
        )
    return responses


def _await_decision(fleet, deadline_s=5.0):
    """Shadow verdicts land on the candidate's worker thread: poll."""
    deadline = time.perf_counter() + deadline_s
    while time.perf_counter() < deadline:
        if not fleet.canary.active():
            return
        time.sleep(0.01)
    raise AssertionError("deployment never reached a verdict")


class TestTrafficSplit:
    def test_assignment_is_pinned_by_seed(self):
        assigned = [i for i in range(20) if traffic_split(0, i, 0.3)]
        assert assigned == [4, 7, 15, 18]

    def test_fraction_scales_the_slice(self):
        assert sum(traffic_split(0, i, 0.5) for i in range(100)) == 44
        assert all(traffic_split(0, i, 1.0) for i in range(100))
        assert not any(traffic_split(0, i, 0.0) for i in range(100))

    def test_different_seeds_differ(self):
        a = [traffic_split(0, i, 0.5) for i in range(64)]
        b = [traffic_split(1, i, 0.5) for i in range(64)]
        assert a != b


class TestCanaryPromote:
    def test_healthy_candidate_is_auto_promoted(self, artifact_dirs, serving_records):
        with _fleet(artifact_dirs) as fleet:
            status = fleet.canary_start(
                artifact_dirs[1], mode="canary", fraction=0.5, window=10
            )
            assert status["state"] == "canary"
            assert status["candidate_version"] == 2

            _drive(fleet, serving_records, 60)
            _await_decision(fleet)

            status = fleet.canary_status()
            assert status["state"] == "promoted"
            assert status["reason"] == "all canary gates passed"
            assert status["metrics"]["errors"] == 0
            assert fleet.registry.active().version_id == 2
            # The pool now serves the promoted version.
            response = _drive(fleet, serving_records, 1)[0]
            assert response.model_version == 2

    def test_candidate_answers_its_slice_during_canary(
        self, artifact_dirs, serving_records
    ):
        with _fleet(artifact_dirs) as fleet:
            fleet.canary_start(
                artifact_dirs[1], mode="canary", fraction=0.5, window=100
            )
            responses = _drive(fleet, serving_records, 20)
            versions = [r.model_version for r in responses]
            # Pinned by traffic_split(seed=0, ...): both models answered.
            assert set(versions) == {1, 2}
            expected = [
                2 if traffic_split(0, i, 0.5) else 1 for i in range(20)
            ]
            assert versions == expected
            fleet.canary_abort()


class TestCanaryRollback:
    def test_broken_candidate_rolls_back_without_client_errors(
        self, artifact_dirs, serving_records
    ):
        with _fleet(artifact_dirs) as fleet:
            with faults.overridden(BROKEN_CANDIDATE):
                fleet.canary_start(
                    artifact_dirs[1], mode="canary", fraction=1.0, window=6
                )
                responses = _drive(fleet, serving_records, 12)
            # Every candidate failure fell back to the pool: clients
            # only ever saw the active version.
            assert all(r.model_version == 1 for r in responses)
            status = fleet.canary_status()
            assert status["state"] == "rolled_back"
            assert "error rate" in status["reason"]
            assert status["metrics"]["error_rate"] == 1.0
            assert fleet.registry.active().version_id == 1

    def test_double_start_is_rejected_and_abort_rolls_back(
        self, artifact_dirs
    ):
        with _fleet(artifact_dirs) as fleet:
            fleet.canary_start(
                artifact_dirs[1], mode="canary", fraction=0.1, window=1000
            )
            with pytest.raises(ServingError, match="already active"):
                fleet.canary_start(artifact_dirs[1], mode="canary")
            status = fleet.canary_abort()
            assert status["state"] == "rolled_back"
            assert "operator" in status["reason"]
            assert fleet.registry.active().version_id == 1
            # A finished deployment re-arms.
            assert fleet.canary_start(artifact_dirs[1], mode="shadow")[
                "state"
            ] == "shadow"

    def test_invalid_knobs_are_bad_requests(self, artifact_dirs):
        with _fleet(artifact_dirs) as fleet:
            with pytest.raises(BadRequest, match="mode"):
                fleet.canary_start(artifact_dirs[1], mode="yolo")
            with pytest.raises(BadRequest, match="fraction"):
                fleet.canary_start(artifact_dirs[1], fraction=1.5)
            with pytest.raises(BadRequest, match="window"):
                fleet.canary_start(artifact_dirs[1], window=0)
            assert not fleet.canary.active()


class TestShadowMode:
    def test_broken_candidate_is_invisible_and_rolled_back(
        self, artifact_dirs, serving_records
    ):
        with _fleet(artifact_dirs) as fleet:
            with faults.overridden(BROKEN_CANDIDATE):
                fleet.canary_start(
                    artifact_dirs[1], mode="shadow", fraction=1.0, window=6
                )
                responses = _drive(fleet, serving_records, 10)
                _await_decision(fleet)
            # Shadow mode never returns candidate answers — a fortiori
            # not broken ones.  Zero bad responses reached a client.
            assert all(r.model_version == 1 for r in responses)
            status = fleet.canary_status()
            assert status["state"] == "rolled_back"
            assert "error rate" in status["reason"]
            assert status["metrics"]["shadow_pairs"] >= 6
            assert fleet.registry.active().version_id == 1

    def test_agreeing_candidate_is_promoted(self, artifact_dirs, serving_records):
        # Stage the *same* artifact as a new version: its labels match
        # the primary's bitwise, so the prediction-delta gate passes.
        with _fleet(artifact_dirs) as fleet:
            fleet.canary_start(
                artifact_dirs[0], mode="shadow", fraction=1.0, window=6
            )
            # Exactly the decision window: every primary answer is
            # returned before its mirror can possibly promote, so the
            # version assertion below is race-free.
            responses = _drive(fleet, serving_records, 6)
            _await_decision(fleet)
            assert all(r.model_version == 1 for r in responses)
            status = fleet.canary_status()
            assert status["state"] == "promoted", status["reason"]
            assert status["metrics"]["shadow_mismatches"] == 0
            assert status["metrics"]["errors"] == 0
            assert fleet.registry.active().version_id == 2

    def test_prediction_delta_gate(self, artifact_dirs):
        # The verdict is pure maths over the recorded counters: a 10%
        # disagreement rate trips the default 2% delta gate.
        registry = ModelRegistry()
        registry.load(artifact_dirs[0])
        from repro.serving.fleet import CanaryController

        controller = CanaryController(registry, FleetConfig(replicas=2))
        controller._state = "shadow"
        controller._mode = "shadow"
        controller._candidate_samples = 10
        controller._shadow_pairs = 10
        controller._shadow_mismatches = 1
        outcome, reason = controller._verdict_locked()
        assert outcome == "rolled_back"
        assert "prediction delta" in reason

        controller._shadow_mismatches = 0
        outcome, reason = controller._verdict_locked()
        assert outcome == "promoted"
