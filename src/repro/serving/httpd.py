"""stdlib ``http.server`` JSON front-end for the serving fleet.

Endpoints (see ``docs/serving.md`` for the full contract):

    POST /predict       {"tokens": [...], "followers": 0, "priority": ...}
    GET  /healthz       liveness + active model summary
    GET  /metrics       counters, cache stats, latency percentiles
    POST /swap          {"artifact": "<dir>"} -> hot-swap the model
    POST /canary        {"artifact": "<dir>", "mode": "canary"|"shadow", ...}
    GET  /canary        canary/shadow deployment status
    POST /canary/abort  roll back the active deployment

Failures map to the :class:`~repro.serving.errors.ServingError`
hierarchy's HTTP statuses with ``{"error": kind, "message": ...}``
bodies.  The server is a ``ThreadingHTTPServer``: each connection gets
a thread, and the micro-batching scheduler coalesces their requests.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from .errors import BadRequest, ServingError
from .fleet import FleetService
from .requests import PredictRequest

_MAX_BODY_BYTES = 1 << 20  # 1 MiB of JSON is plenty for one tweet


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs onto the owning server's service."""

    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> FleetService:
        """The service owned by the :class:`ServingServer`."""
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence per-request stderr logging (obs holds the metrics)."""

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0 or length > _MAX_BODY_BYTES:
            raise BadRequest(f"request body must be 1..{_MAX_BODY_BYTES} bytes")
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise BadRequest(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        return payload

    def _dispatch(self, handler) -> None:
        try:
            status, payload = handler()
        except ServingError as exc:
            self._send_json(exc.status, {"error": exc.kind, "message": str(exc)})
        except Exception as exc:  # staticcheck: disable=broad-except
            # A handler bug must answer the socket, not kill the thread.
            self._send_json(
                500, {"error": "ServingError", "message": f"internal error: {exc!r}"}
            )
        else:
            self._send_json(status, payload)

    def do_GET(self) -> None:
        """GET /healthz, /metrics, and /canary."""

        def handler() -> Tuple[int, dict]:
            if self.path == "/healthz":
                return 200, self.service.healthz()
            if self.path == "/metrics":
                return 200, self.service.metrics()
            if self.path == "/canary":
                return 200, self.service.canary_status()
            raise BadRequest(f"unknown path {self.path!r}")

        self._dispatch(handler)

    def do_POST(self) -> None:
        """POST /predict and /swap."""

        def handler() -> Tuple[int, dict]:
            if self.path == "/predict":
                payload = self._read_json()
                if "tokens" not in payload:
                    raise BadRequest("predict payload must carry 'tokens'")
                request = PredictRequest.build(
                    payload["tokens"],
                    followers=payload.get("followers", 0),
                    created_at=payload.get("created_at"),
                    vocabulary=payload.get("vocabulary"),
                    magnitudes=payload.get("magnitudes"),
                )
                priority = payload.get("priority", "normal")
                if not isinstance(priority, str):
                    raise BadRequest("priority must be a string")
                return 200, self.service.predict(request, priority=priority).to_json()
            if self.path == "/swap":
                payload = self._read_json()
                artifact = payload.get("artifact")
                if not isinstance(artifact, str) or not artifact:
                    raise BadRequest("swap payload must carry an 'artifact' path")
                return 200, self.service.swap(
                    artifact,
                    expect_fingerprint=payload.get("expect_fingerprint"),
                )
            if self.path == "/canary":
                payload = self._read_json()
                artifact = payload.get("artifact")
                if not isinstance(artifact, str) or not artifact:
                    raise BadRequest("canary payload must carry an 'artifact' path")
                return 200, self.service.canary_start(
                    artifact,
                    mode=payload.get("mode", "canary"),
                    fraction=payload.get("fraction"),
                    window=payload.get("window"),
                    expect_fingerprint=payload.get("expect_fingerprint"),
                )
            if self.path == "/canary/abort":
                # Drain any (optional) body so the keep-alive stream
                # stays aligned for the next request.
                length = int(self.headers.get("Content-Length") or 0)
                if 0 < length <= _MAX_BODY_BYTES:
                    self.rfile.read(length)
                return 200, self.service.canary_abort()
            raise BadRequest(f"unknown path {self.path!r}")

        self._dispatch(handler)


class ServingServer:
    """Owns a ThreadingHTTPServer bound to the service."""

    def __init__(
        self,
        service: FleetService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = service  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (port resolved when 0 was asked)."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        """Base URL clients should target."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServingServer":
        """Serve on a background thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serving-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's blocking mode)."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        """Shut the listener down and drain the service."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.service.close()
