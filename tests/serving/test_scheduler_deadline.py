"""Deadline semantics of the batch scheduler (ISSUE 10 satellite).

Proves the two load-bearing guarantees:

* a request whose deadline lapses **while queued** fails with
  :class:`DeadlineExceeded` *before* it is dispatched into a batch —
  the runner provably never sees it;
* under concurrent submitters the accounting is exact — every request
  is either served or expired, and ``served + expired == submitted``.

Both tests gate the worker with an event so the "deadline lapses while
queued" window is deterministic, not a race.
"""

import threading
import time

import pytest

from repro.serving import (
    BatchScheduler,
    DeadlineExceeded,
    PredictRequest,
    PredictResponse,
)


def _request(i):
    return PredictRequest.build([f"tok{i}"])


class _GatedEcho:
    """Echo runner that blocks each flush on a gate and records batches."""

    def __init__(self):
        self.gate = threading.Event()
        self.batches = []
        self._lock = threading.Lock()

    def __call__(self, requests):
        with self._lock:
            self.batches.append([r.tokens[0] for r in requests])
        self.gate.wait(timeout=10.0)
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

    def seen_tokens(self):
        with self._lock:
            return {token for batch in self.batches for token in batch}

    def wait_for_first_batch(self):
        deadline = time.perf_counter() + 5.0
        while time.perf_counter() < deadline:
            with self._lock:
                if self.batches:
                    return
            time.sleep(0.001)
        raise AssertionError("worker never collected the plug batch")


class TestQueuedDeadline:
    def test_submit_with_dead_deadline_fails_immediately(self):
        runner = _GatedEcho()
        runner.gate.set()
        scheduler = BatchScheduler(runner, max_batch_size=4)
        try:
            with pytest.raises(DeadlineExceeded, match="unmeetable at submit"):
                scheduler.submit(_request(0), timeout_s=0.0)
            with pytest.raises(DeadlineExceeded):
                scheduler.submit(_request(0), timeout_s=-1.0)
            assert scheduler.stats()["submitted"] == 0
        finally:
            scheduler.close()

    def test_expires_before_dispatch_and_runner_never_sees_it(self):
        runner = _GatedEcho()
        scheduler = BatchScheduler(
            runner, max_batch_size=64, max_queue=256
        )
        try:
            # Plug the worker: it collects this one request and blocks
            # inside the runner until the gate opens.
            plug = scheduler.submit(_request(0))
            runner.wait_for_first_batch()

            doomed = [
                scheduler.submit(_request(i), timeout_s=0.05)
                for i in range(1, 7)
            ]
            time.sleep(0.2)  # deadlines lapse while the worker is gated
            runner.gate.set()

            assert plug.wait(5.0).fingerprint == "tok0"
            for pending in doomed:
                with pytest.raises(
                    DeadlineExceeded, match="dropped before batch dispatch"
                ):
                    pending.wait(5.0)

            # The runner only ever saw the plug — no expired request
            # occupied a batch slot.
            assert runner.seen_tokens() == {"tok0"}
            stats = scheduler.stats()
            assert stats["submitted"] == 7
            assert stats["expired"] == 6
            assert stats["batches"] == 1
            assert stats["batched_rows"] == 1
        finally:
            runner.gate.set()
            scheduler.close()

    def test_concurrent_hammer_accounts_for_every_request(self):
        """8 threads, exact shed/served bookkeeping, nothing lost."""
        runner = _GatedEcho()
        scheduler = BatchScheduler(
            runner, max_batch_size=512, max_queue=1024
        )
        threads = 8
        doomed_per_thread = 6
        durable_per_thread = 6
        doomed, durable, errors = [], [], []
        lock = threading.Lock()
        barrier = threading.Barrier(threads)

        def submitter(worker):
            barrier.wait()
            for i in range(doomed_per_thread):
                handle = scheduler.submit(
                    _request(f"{worker}-doomed-{i}"), timeout_s=0.05
                )
                with lock:
                    doomed.append(handle)
            for i in range(durable_per_thread):
                handle = scheduler.submit(_request(f"{worker}-live-{i}"))
                with lock:
                    durable.append(handle)

        try:
            plug = scheduler.submit(_request("plug"))
            runner.wait_for_first_batch()

            workers = [
                threading.Thread(target=submitter, args=(w,))
                for w in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            time.sleep(0.2)  # every doomed deadline lapses while gated
            runner.gate.set()

            assert plug.wait(5.0).fingerprint == "tokplug"
            for handle in doomed:
                with pytest.raises(
                    DeadlineExceeded, match="dropped before batch dispatch"
                ):
                    handle.wait(5.0)
            served = [handle.wait(5.0) for handle in durable]
            assert len(served) == threads * durable_per_thread
            for handle, response in zip(durable, served):
                assert response.fingerprint == handle.request.tokens[0]
            assert errors == []

            stats = scheduler.stats()
            submitted = 1 + threads * (doomed_per_thread + durable_per_thread)
            assert stats["submitted"] == submitted
            assert stats["expired"] == threads * doomed_per_thread
            assert stats["rejected"] == 0
            assert stats["batched_rows"] == 1 + threads * durable_per_thread
            assert stats["batched_rows"] + stats["expired"] == submitted
            # No doomed token ever reached the runner.
            assert not any("doomed" in t for t in runner.seen_tokens())
        finally:
            runner.gate.set()
            scheduler.close()
