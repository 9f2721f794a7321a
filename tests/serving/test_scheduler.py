"""BatchScheduler unit tests against a scripted runner."""

import threading
import time

import pytest

from repro.serving import (
    BatchScheduler,
    DeadlineExceeded,
    ModelUnavailable,
    PredictRequest,
    PredictResponse,
    QueueFull,
    ServingConfig,
    ServingError,
)


def _request(i):
    return PredictRequest.build([f"tok{i}"])


def _echo_runner(requests):
    """One response per request, labelled with its token index."""
    return [
        PredictResponse(
            probabilities=[1.0, 0.0, 0.0],
            label=0,
            model_version=1,
            fingerprint=request.tokens[0],
            batch_rows=len(requests),
        )
        for request in requests
    ]


class TestBatching:
    def test_single_request_round_trips(self):
        scheduler = BatchScheduler(_echo_runner, max_batch_size=4)
        response = scheduler.predict(_request(7), timeout_s=5.0)
        assert response.fingerprint == "tok7"
        scheduler.close()

    def test_order_preserved_within_batches(self):
        scheduler = BatchScheduler(_echo_runner, max_batch_size=8)
        pendings = [scheduler.submit(_request(i), timeout_s=5.0) for i in range(20)]
        responses = [p.wait(5.0) for p in pendings]
        assert [r.fingerprint for r in responses] == [f"tok{i}" for i in range(20)]
        scheduler.close()

    def test_batches_respect_max_batch_size(self):
        seen = []

        def runner(requests):
            seen.append(len(requests))
            return _echo_runner(requests)

        scheduler = BatchScheduler(runner, max_batch_size=4)
        pendings = [scheduler.submit(_request(i), timeout_s=5.0) for i in range(10)]
        for p in pendings:
            p.wait(5.0)
        scheduler.close()
        assert max(seen) <= 4
        assert sum(seen) == 10

    def test_micro_batching_coalesces_concurrent_submitters(self):
        """Many threads submitting at once -> fewer flushes than requests."""
        scheduler = BatchScheduler(_echo_runner, max_batch_size=16)
        barrier = threading.Barrier(12)
        results = []

        def client(i):
            barrier.wait()
            results.append(scheduler.predict(_request(i), timeout_s=5.0))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        scheduler.close()
        assert len(results) == 12
        assert scheduler.batches < 12
        assert scheduler.mean_batch_size > 1.0

    def test_idle_scheduler_runs_lone_request_as_batch_of_one(self):
        seen = []

        def runner(requests):
            seen.append(len(requests))
            return _echo_runner(requests)

        scheduler = BatchScheduler(runner, max_batch_size=64)
        response = scheduler.predict(_request(0), timeout_s=5.0)
        scheduler.close()
        assert response.batch_rows == 1
        assert seen == [1]

    def test_requests_queued_behind_busy_worker_form_one_batch(self):
        """A plugged worker, 12 queued requests, release -> batches [1, 12]."""
        seen = []
        entered = threading.Event()
        release = threading.Event()

        def plugged_runner(requests):
            seen.append(len(requests))
            entered.set()
            release.wait(5.0)
            return _echo_runner(requests)

        scheduler = BatchScheduler(plugged_runner, max_batch_size=16)
        try:
            plug = scheduler.submit(_request(0), timeout_s=5.0)
            assert entered.wait(5.0)
            queued = [scheduler.submit(_request(i), timeout_s=5.0) for i in range(1, 13)]
            release.set()
            assert plug.wait(5.0).fingerprint == "tok0"
            assert [p.wait(5.0).fingerprint for p in queued] == [
                f"tok{i}" for i in range(1, 13)
            ]
        finally:
            release.set()
            scheduler.close()
        assert seen == [1, 12]


class TestBackpressureAndDeadlines:
    def test_queue_full_raises_typed_error(self):
        release = threading.Event()

        def slow_runner(requests):
            release.wait(5.0)
            return _echo_runner(requests)

        scheduler = BatchScheduler(
            slow_runner, max_batch_size=1, max_queue=2
        )
        first = scheduler.submit(_request(0), timeout_s=5.0)  # occupies worker
        time.sleep(0.05)
        scheduler.submit(_request(1), timeout_s=5.0)
        scheduler.submit(_request(2), timeout_s=5.0)
        with pytest.raises(QueueFull):
            scheduler.submit(_request(3), timeout_s=5.0)
        assert scheduler.rejected == 1
        release.set()
        first.wait(5.0)
        scheduler.close()

    def test_expired_deadline_surfaces_typed_error(self):
        release = threading.Event()

        def slow_runner(requests):
            release.wait(5.0)
            return _echo_runner(requests)

        scheduler = BatchScheduler(
            slow_runner, max_batch_size=1, max_queue=8
        )
        scheduler.submit(_request(0), timeout_s=5.0)  # occupies the worker
        time.sleep(0.05)
        doomed = scheduler.submit(_request(1), timeout_s=0.01)  # expires queued
        time.sleep(0.05)  # let the deadline lapse while the worker is busy
        release.set()
        with pytest.raises(DeadlineExceeded):
            doomed.wait(5.0)
        assert scheduler.expired == 1
        scheduler.close()

    def test_wait_timeout_raises_deadline(self):
        hold = threading.Event()

        def stuck_runner(requests):
            hold.wait(5.0)
            return _echo_runner(requests)

        scheduler = BatchScheduler(stuck_runner, max_batch_size=1)
        pending = scheduler.submit(_request(0))
        with pytest.raises(DeadlineExceeded):
            pending.wait(0.05)
        hold.set()
        scheduler.close()


class TestRunnerFailures:
    def test_runner_exception_fails_whole_batch_but_not_worker(self):
        calls = []

        def flaky_runner(requests):
            calls.append(len(requests))
            if len(calls) == 1:
                raise RuntimeError("boom")
            return _echo_runner(requests)

        scheduler = BatchScheduler(flaky_runner, max_batch_size=4)
        with pytest.raises(ServingError, match="batch runner failed"):
            scheduler.predict(_request(0), timeout_s=5.0)
        # the worker survived and serves the next batch
        assert scheduler.predict(_request(1), timeout_s=5.0).fingerprint == "tok1"
        scheduler.close()

    def test_runner_count_mismatch_detected(self):
        def broken_runner(requests):
            return []

        scheduler = BatchScheduler(broken_runner, max_batch_size=4)
        with pytest.raises(ServingError, match="responses"):
            scheduler.predict(_request(0), timeout_s=5.0)
        scheduler.close()


class TestLifecycle:
    def test_close_drains_pending_work(self):
        scheduler = BatchScheduler(_echo_runner, max_batch_size=4)
        pendings = [scheduler.submit(_request(i), timeout_s=5.0) for i in range(6)]
        scheduler.close()
        for i, pending in enumerate(pendings):
            assert pending.wait(1.0).fingerprint == f"tok{i}"

    def test_submit_after_close_raises(self):
        scheduler = BatchScheduler(_echo_runner)
        scheduler.close()
        with pytest.raises(ModelUnavailable):
            scheduler.submit(_request(0))

    def test_close_is_idempotent(self):
        scheduler = BatchScheduler(_echo_runner)
        scheduler.close()
        scheduler.close()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            BatchScheduler(_echo_runner, max_batch_size=0)
        # The flush timer is gone: a batch never waits for company.
        with pytest.raises(TypeError):
            BatchScheduler(_echo_runner, max_wait_ms=1)
        with pytest.raises(TypeError):
            ServingConfig(max_wait_ms=1)
        with pytest.raises(ValueError):
            BatchScheduler(_echo_runner, max_queue=0)
