"""HTTP client transport failures (ISSUE 10 satellite).

``HTTPServingClient`` must surface connection failures as the typed
:class:`ServingUnavailable` (never a raw ``URLError``) and retry only
the **idempotent** GET endpoints under its seeded
:class:`~repro.resilience.RetryPolicy`.  POSTs may have executed on the
server even when the reply is lost, so they are never retried.

No sockets here: ``urllib.request.urlopen`` is monkeypatched with a
scripted transport, so failure order and call counts are exact.
"""

import io
import json
import urllib.error
import urllib.request

import pytest

from repro.resilience import RetryPolicy
from repro.serving import (
    AdmissionRejected,
    HTTPServingClient,
    ModelUnavailable,
    ServingUnavailable,
)

FAST_RETRY = RetryPolicy(
    max_attempts=3,
    base_delay_s=0.0,
    max_delay_s=0.0,
    jitter=0.0,
    seed=0,
    retryable=(ServingUnavailable,),
)


class _FakeReply:
    def __init__(self, payload):
        self._payload = payload

    def read(self):
        return json.dumps(self._payload).encode("utf-8")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _Transport:
    """Scripted urlopen: pops one outcome per call, records the calls."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def __call__(self, request, timeout=None):
        self.calls.append((request.get_method(), request.full_url))
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return _FakeReply(outcome)


def _reset():
    return urllib.error.URLError(ConnectionResetError(104, "connection reset"))


@pytest.fixture()
def client():
    return HTTPServingClient("http://127.0.0.1:1", retry_policy=FAST_RETRY)


class TestIdempotentRetry:
    def test_healthz_rides_out_connection_resets(self, client, monkeypatch):
        transport = _Transport([_reset(), _reset(), {"status": "ok"}])
        monkeypatch.setattr(urllib.request, "urlopen", transport)
        assert client.healthz() == {"status": "ok"}
        assert len(transport.calls) == 3
        assert all(method == "GET" for method, _ in transport.calls)

    def test_metrics_retries_connection_refused(self, client, monkeypatch):
        refused = urllib.error.URLError(
            ConnectionRefusedError(111, "connection refused")
        )
        transport = _Transport([refused, {"responses": 0}])
        monkeypatch.setattr(urllib.request, "urlopen", transport)
        assert client.metrics() == {"responses": 0}
        assert len(transport.calls) == 2

    def test_exhausted_retries_raise_typed_unavailable(self, client, monkeypatch):
        transport = _Transport([_reset(), _reset(), _reset()])
        monkeypatch.setattr(urllib.request, "urlopen", transport)
        with pytest.raises(ServingUnavailable, match="server unreachable"):
            client.healthz()
        assert len(transport.calls) == 3

    def test_unavailable_is_a_model_unavailable(self):
        # Callers that catch the broader 503 condition keep working.
        assert issubclass(ServingUnavailable, ModelUnavailable)


class TestNonIdempotentCalls:
    def test_predict_is_never_retried(self, client, monkeypatch):
        transport = _Transport([_reset(), {"label": 0}])
        monkeypatch.setattr(urllib.request, "urlopen", transport)
        with pytest.raises(ServingUnavailable, match="server unreachable"):
            client.predict(["a"])
        assert len(transport.calls) == 1

    def test_swap_is_never_retried(self, client, monkeypatch):
        transport = _Transport([_reset()])
        monkeypatch.setattr(urllib.request, "urlopen", transport)
        with pytest.raises(ServingUnavailable):
            client.swap("/some/artifact")
        assert len(transport.calls) == 1


class TestErrorBodies:
    def _http_error(self, status, kind, message):
        body = json.dumps({"error": kind, "message": message}).encode("utf-8")
        return urllib.error.HTTPError(
            "http://127.0.0.1:1/x", status, message, {}, io.BytesIO(body)
        )

    def test_server_answers_are_not_retried(self, client, monkeypatch):
        # An HTTP error body is an *answer*: rehydrate the typed error
        # immediately, even on an idempotent endpoint.
        transport = _Transport(
            [self._http_error(429, "AdmissionRejected", "rate limit exceeded")]
        )
        monkeypatch.setattr(urllib.request, "urlopen", transport)
        with pytest.raises(AdmissionRejected, match="rate limit"):
            client.metrics()
        assert len(transport.calls) == 1

    def test_admission_rejection_rehydrates_for_predict(self, client, monkeypatch):
        transport = _Transport(
            [self._http_error(429, "AdmissionRejected", "queue at 9/10")]
        )
        monkeypatch.setattr(urllib.request, "urlopen", transport)
        with pytest.raises(AdmissionRejected):
            client.predict(["a"])
