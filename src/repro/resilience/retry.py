"""Retry policies with deterministic backoff for pipeline stages.

§4.9's deployment re-runs every two hours against live feeds, so a
transient stage failure (a feed hiccup, an injected
:class:`~repro.resilience.faults.TransientFault`) must not kill the
refresh cycle.  :class:`RetryPolicy` wraps a stage call with:

* a bounded number of attempts;
* exponential backoff whose jitter is drawn from a **seeded**
  ``np.random.SeedSequence(seed, spawn_key=(site_key,))`` stream — the
  same run sleeps the same amounts, keeping chaos tests reproducible;
* an optional per-attempt timeout (the call runs on a helper thread and
  a hang surfaces as a retryable :class:`StageTimeout`);
* a retryable-exception filter: :class:`~repro.resilience.faults.FatalFault`
  and ordinary programming errors are never retried.

Exhausting the attempts on a retryable error raises :class:`RetryError`
chained to the last failure; non-retryable errors propagate unchanged
on first occurrence.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple, Type

import numpy as np

from .faults import TransientFault


class StageTimeout(RuntimeError):
    """A stage attempt exceeded the policy's per-attempt timeout."""

    def __init__(self, site: str, timeout_s: float) -> None:
        super().__init__(f"stage {site!r} timed out after {timeout_s:.3f}s")
        self.site = site
        self.timeout_s = timeout_s


class RetryError(RuntimeError):
    """All attempts failed with retryable errors; chained to the last."""

    def __init__(self, site: str, attempts: int, last: BaseException) -> None:
        super().__init__(
            f"stage {site!r} failed after {attempts} attempt(s): {last!r}"
        )
        self.site = site
        self.attempts = attempts
        self.last = last


#: Exceptions retried by default: injected transient faults, timeouts,
#: and the I/O-flavoured errors a live feed actually produces.
DEFAULT_RETRYABLE: Tuple[Type[BaseException], ...] = (
    TransientFault,
    StageTimeout,
    TimeoutError,
    ConnectionError,
    OSError,
)


def _site_entropy(site: str) -> int:
    """Stable 32-bit jitter-stream key for a site name."""
    return int.from_bytes(hashlib.sha256(site.encode("utf-8")).digest()[:4], "little")


@dataclass(frozen=True)
class RetryPolicy:
    """How (and whether) a failed stage call is retried.

    ``max_attempts=1`` degrades to a plain call with the retryable
    filter still deciding which exceptions become :class:`RetryError`.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    backoff: float = 2.0
    jitter: float = 0.1
    timeout_s: Optional[float] = None
    seed: int = 0
    retryable: Tuple[Type[BaseException], ...] = DEFAULT_RETRYABLE

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must lie in [0, 1]")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive or None")

    def is_retryable(self, exc: BaseException) -> bool:
        """True when *exc* is one of the policy's retryable types."""
        return isinstance(exc, self.retryable)

    def delay_s(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before attempt ``attempt + 1`` (1-based failed attempt).

        Exponential in the attempt number, capped at ``max_delay_s``,
        with symmetric seeded jitter of ±``jitter`` of the delay.
        """
        delay = min(
            self.max_delay_s, self.base_delay_s * self.backoff ** (attempt - 1)
        )
        if self.jitter > 0.0:
            delay *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return max(0.0, delay)

    def _attempt(self, func: Callable[[], Any], site: str) -> Any:
        if self.timeout_s is None:
            return func()
        pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"retry-{site}"
        )
        try:
            future = pool.submit(func)
            try:
                return future.result(timeout=self.timeout_s)
            except _FutureTimeout:
                future.cancel()
                raise StageTimeout(site, self.timeout_s) from None
        finally:
            # Never block on a hung attempt; the worker thread is
            # abandoned (daemonic-by-shutdown) and its result discarded.
            pool.shutdown(wait=False)

    def call(
        self,
        func: Callable[[], Any],
        site: str = "stage",
        sleep: Callable[[float], None] = time.sleep,
        on_retry: Optional[Callable[[int, BaseException, float], None]] = None,
    ) -> Any:
        """Run ``func()`` under this policy.

        *on_retry(attempt, exc, delay)* fires before each backoff sleep,
        letting callers bump obs counters or annotate spans.  *sleep* is
        injectable so tests run with zero wall-clock cost.
        """
        # Built on the first failure only: seeding a generator costs more
        # than a fast successful attempt, and only backoff draws from it.
        rng: Optional[np.random.Generator] = None
        last: Optional[BaseException] = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                return self._attempt(func, site)
            except Exception as exc:
                if not self.is_retryable(exc):
                    raise
                last = exc
                if attempt >= self.max_attempts:
                    break
                if rng is None:
                    rng = np.random.default_rng(
                        np.random.SeedSequence(
                            entropy=self.seed, spawn_key=(_site_entropy(site),)
                        )
                    )
                delay = self.delay_s(attempt, rng)
                if on_retry is not None:
                    on_retry(attempt, exc, delay)
                if delay > 0.0:
                    sleep(delay)
        assert last is not None
        raise RetryError(site, self.max_attempts, last) from last
