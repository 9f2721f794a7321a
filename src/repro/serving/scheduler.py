"""Micro-batching dispatcher: many single-tweet requests, one forward.

Requests enqueue onto a bounded deque; a single worker thread takes
whatever is queued when it is free, up to ``max_batch_size``, and hands
the whole batch to a runner callable that performs one NumPy forward
pass.  The worker never holds a partial batch back waiting for more:
an idle replica answers a lone request at once, and under load batches
form from the requests that queued during the previous forward pass.
Per-request deadlines and queue capacity surface as typed
:class:`~repro.serving.errors.ServingError`s, never as dropped requests.

Queue depth and realised batch sizes stream into ``repro.obs``
histograms (``serving.queue_depth`` / ``serving.batch_size``) so a load
test shows whether micro-batching actually engaged.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, List, Optional, Sequence

from .. import obs
from ..tools.annotations import guarded_by
from .errors import DeadlineExceeded, ModelUnavailable, QueueFull, ServingError
from .requests import PredictRequest, PredictResponse

#: runner(requests) -> one response per request, same order.
BatchRunner = Callable[[Sequence[PredictRequest]], List[PredictResponse]]


#: Optional completion observer: ``on_done(response, error)`` — exactly
#: one of the two is non-None.  Used by shadow deployments to record a
#: mirrored request's outcome without anyone blocking on the handle.
DoneCallback = Callable[[Optional[PredictResponse], Optional[BaseException]], None]


class PendingRequest:
    """A submitted request awaiting its batch's completion."""

    __slots__ = (
        "request", "deadline", "enqueued_at", "_done", "response", "error", "on_done",
    )

    def __init__(
        self,
        request: PredictRequest,
        deadline: Optional[float],
        on_done: Optional[DoneCallback] = None,
    ) -> None:
        self.request = request
        self.deadline = deadline
        self.enqueued_at = time.perf_counter()
        self._done = threading.Event()
        self.response: Optional[PredictResponse] = None
        self.error: Optional[BaseException] = None
        self.on_done = on_done

    def resolve(self, response: PredictResponse) -> None:
        """Deliver the response and wake the waiting caller."""
        response.latency_ms = (time.perf_counter() - self.enqueued_at) * 1000.0
        self.response = response
        self._done.set()
        if self.on_done is not None:
            self.on_done(response, None)

    def fail(self, error: BaseException) -> None:
        """Deliver a failure and wake the waiting caller."""
        self.error = error
        self._done.set()
        if self.on_done is not None:
            self.on_done(None, error)

    def wait(self, timeout_s: Optional[float]) -> PredictResponse:
        """Block until resolved; raises the typed error on failure."""
        if not self._done.wait(timeout_s):
            obs.counter("serving.timeouts").inc()
            raise DeadlineExceeded(
                f"no response within {timeout_s:.3f}s (request still queued)"
            )
        if self.error is not None:
            raise self.error
        assert self.response is not None
        return self.response

    def expired(self, now: float) -> bool:
        """True when the request's deadline has already passed."""
        return self.deadline is not None and now >= self.deadline


@guarded_by(
    "_cond",
    "_queue",
    "_closed",
    "batches",
    "batched_rows",
    "submitted",
    "rejected",
    "expired",
)
class BatchScheduler:
    """Queues requests and flushes micro-batches through a runner.

    All mutable state is guarded by ``_cond`` (a condition over an
    RLock, so the stats helpers can nest); the worker thread and any
    number of submitters synchronise on it.
    """

    def __init__(
        self,
        runner: BatchRunner,
        max_batch_size: int = 32,
        max_queue: int = 256,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self._runner = runner
        self.max_batch_size = max_batch_size
        self.max_queue = max_queue
        self._queue: "deque[PendingRequest]" = deque()
        self._cond = threading.Condition()
        self._closed = False
        self.batches = 0
        self.batched_rows = 0
        self.submitted = 0
        self.rejected = 0
        self.expired = 0
        self._worker = threading.Thread(
            target=self._run, name="repro-serving-batcher", daemon=True
        )
        self._worker.start()

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        request: PredictRequest,
        timeout_s: Optional[float] = None,
        on_done: Optional[DoneCallback] = None,
    ) -> PendingRequest:
        """Enqueue *request*; returns a handle to wait on.

        Raises :class:`QueueFull` when the bounded queue is at capacity
        (backpressure — the caller should shed or retry with backoff),
        :class:`DeadlineExceeded` for an already-dead deadline, and
        :class:`ModelUnavailable` after :meth:`close`.  *on_done* fires
        exactly once when the request resolves or fails, on whichever
        thread resolves it — shadow mirroring records outcomes through
        it without blocking anybody.
        """
        if timeout_s is not None and timeout_s <= 0:
            obs.counter("serving.timeouts").inc()
            raise DeadlineExceeded(
                f"deadline of {timeout_s:.3f}s is already unmeetable at submit"
            )
        deadline = time.perf_counter() + timeout_s if timeout_s is not None else None
        pending = PendingRequest(request, deadline, on_done=on_done)
        with self._cond:
            if self._closed:
                raise ModelUnavailable("scheduler is shut down")
            if len(self._queue) >= self.max_queue:
                self.rejected += 1
                obs.counter("serving.queue_rejections").inc()
                raise QueueFull(
                    f"request queue at capacity ({self.max_queue}); retry later"
                )
            self._queue.append(pending)
            self.submitted += 1
            obs.counter("serving.requests").inc()
            obs.histogram("serving.queue_depth").observe(len(self._queue))
            self._cond.notify()
        return pending

    def predict(
        self, request: PredictRequest, timeout_s: Optional[float] = None
    ) -> PredictResponse:
        """Submit and block for the response (convenience wrapper)."""
        return self.submit(request, timeout_s=timeout_s).wait(timeout_s)

    # -- worker --------------------------------------------------------------

    def _collect(self) -> Optional[List[PendingRequest]]:
        """Wait for work, then gather whatever is queued as one micro-batch.

        Requests whose deadline already passed are dropped *here* —
        before they are dispatched into a batch — so an expired request
        never occupies a batch slot and fails with
        :class:`DeadlineExceeded` without ever reaching the runner.
        Returns ``None`` only when closed and fully drained; an empty
        list means every queued request had expired.
        """
        overdue: List[PendingRequest] = []
        with self._cond:
            while not self._queue and not self._closed:
                self._cond.wait()
            if not self._queue:
                return None
        # Yield the interpreter once with the lock released: submitters
        # that the previous batch's resolve() calls just woke enqueue
        # their next request before the pop, so closed-loop batches stay
        # full.  Only this thread pops, so the queue is still non-empty.
        time.sleep(0)
        with self._cond:
            now = time.perf_counter()
            batch: List[PendingRequest] = []
            while self._queue and len(batch) < self.max_batch_size:
                pending = self._queue.popleft()
                if pending.expired(now):
                    overdue.append(pending)
                else:
                    batch.append(pending)
            self.expired += len(overdue)
        # Failing the overdue requests happens outside the lock: fail()
        # wakes waiters and may run an on_done callback, neither of
        # which should ever execute under the scheduler's condition.
        for pending in overdue:
            obs.counter("serving.timeouts").inc()
            pending.fail(
                DeadlineExceeded(
                    "deadline expired while queued (dropped before batch dispatch)"
                )
            )
        return batch

    def _run(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                return
            if not batch:
                continue
            self._flush(batch)

    def _flush(self, batch: List[PendingRequest]) -> None:
        """Expire overdue requests, run the rest, deliver results."""
        now = time.perf_counter()
        live: List[PendingRequest] = []
        expired_now = 0
        for pending in batch:
            if pending.expired(now):
                expired_now += 1
                obs.counter("serving.timeouts").inc()
                pending.fail(
                    DeadlineExceeded("deadline expired while queued for a batch")
                )
            else:
                live.append(pending)
        with self._cond:
            self.expired += expired_now
            self.batches += 1
            self.batched_rows += len(live)
        obs.counter("serving.batches").inc()
        obs.histogram("serving.batch_size").observe(len(live))
        try:
            responses = self._runner([p.request for p in live])
        except ServingError as exc:
            for pending in live:
                pending.fail(exc)
            return
        except Exception as exc:  # staticcheck: disable=broad-except
            # The worker thread must survive arbitrary runner bugs:
            # every caller gets the failure, the loop keeps serving.
            obs.counter("serving.runner_errors").inc()
            for pending in live:
                pending.fail(ServingError(f"batch runner failed: {exc!r}"))
            return
        if len(responses) != len(live):
            for pending in live:
                pending.fail(
                    ServingError(
                        f"runner returned {len(responses)} responses "
                        f"for {len(live)} requests"
                    )
                )
            return
        for pending, response in zip(live, responses):
            pending.resolve(response)

    # -- lifecycle -----------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a batch."""
        with self._cond:
            return len(self._queue)

    @property
    def mean_batch_size(self) -> float:
        """Average realised batch size across all flushes so far."""
        with self._cond:
            return self.batched_rows / self.batches if self.batches else 0.0

    def stats(self) -> dict:
        """Scheduler counters for ``/metrics`` (one consistent snapshot)."""
        with self._cond:
            return {
                "submitted": self.submitted,
                "rejected": self.rejected,
                "expired": self.expired,
                "batches": self.batches,
                "batched_rows": self.batched_rows,
                "mean_batch_size": self.mean_batch_size,
                "queue_depth": len(self._queue),
            }

    def close(self) -> None:
        """Stop accepting work, drain the queue, join the worker."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._worker.join()
