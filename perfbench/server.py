"""The serving child process and the open-loop HTTP load generator.

The server is the real CLI, ``python -m repro serve --replicas 2``, bound
to an ephemeral loopback port.  The load comes from this process alone:
at most two worker threads, each opening one connection per request, so
at most two connections are open at a time.
Arrivals are open-loop: request *i* is due at a fixed offset whatever
the server does, each latency is timed from its due time, and the
difference between due and actual send time is the generator's lateness.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Seconds to wait for the child to bind and answer ``/healthz``.
START_TIMEOUT_S = 60.0


class CheckFailed(RuntimeError):
    """An output check failed; the benchmark exits non-zero."""


class Connection:
    """JSON calls to the server, one TCP connection per call.

    A fresh connection per request is what the program's own
    ``HTTPServingClient`` (``urllib``) does.  Reusing a keep-alive
    connection instead adds about 40 ms per response on Linux loopback: the server
    writes headers and body separately, and Nagle's algorithm holds the
    body until the client's delayed ACK.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 30.0) -> None:
        self.host, self.port, self.timeout_s = host, port, timeout_s

    def call(self, method: str, path: str, payload: Any = None) -> Tuple[int, Dict[str, Any]]:
        body = None if payload is None else (
            payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        )
        headers = {"Connection": "close"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout_s)
        try:
            conn.request(method, path, body=body, headers=headers)
            reply = conn.getresponse()
            return reply.status, json.loads(reply.read().decode("utf-8"))
        except (http.client.HTTPException, OSError) as exc:
            raise ConnectionError(f"{method} {path}: {exc}") from exc
        finally:
            conn.close()


class ServerProcess:
    """``python -m repro serve`` as a child on an ephemeral port."""

    def __init__(self, root: str, artifact: str, max_batch_size: int,
                 replicas: int = 2) -> None:
        self.root = root
        self.artifact = artifact
        self.max_batch_size = max_batch_size
        self.replicas = replicas
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._tail: List[str] = []
        self._reader: Optional[threading.Thread] = None

    def start(self) -> "ServerProcess":
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--artifact", self.artifact,
                "--host", self.host, "--port", "0",
                "--replicas", str(self.replicas),
                "--max-batch-size", str(self.max_batch_size),
            ],
            cwd=self.root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self._reader = threading.Thread(target=self._drain, name="perfbench-server-log", daemon=True)
        self._reader.start()
        deadline = time.perf_counter() + START_TIMEOUT_S
        while self.port == 0:
            try:
                line = self._lines.get(timeout=max(0.01, deadline - time.perf_counter()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise CheckFailed(f"server did not start: {' | '.join(self._tail[-5:])}")
            if line.startswith("serving on http://"):
                address = line.split()[2][len("http://"):]
                self.port = int(address.rsplit(":", 1)[1])
        return self

    def _drain(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            line = line.rstrip("\n")
            self._tail = (self._tail + [line])[-20:]
            self._lines.put(line)
        self._lines.put(None)

    def connect(self) -> Connection:
        return Connection(self.host, self.port)

    def running(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def vm_hwm_mb(self) -> float:
        """Peak resident memory of the child (``VmHWM``), in MB."""
        assert self.proc is not None
        with open(f"/proc/{self.proc.pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise CheckFailed("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then wait; kill if stuck."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._reader is not None:
            self._reader.join(timeout=5)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.proc = None


def wait_healthy(conn: Connection, fingerprint: str, timeout_s: float = START_TIMEOUT_S) -> Dict[str, Any]:
    """Poll ``/healthz`` until it reports *fingerprint*."""
    deadline = time.perf_counter() + timeout_s
    while True:
        try:
            status, body = conn.call("GET", "/healthz")
            if status == 200 and body["model"]["fingerprint"] == fingerprint:
                return body
        except ConnectionError:
            pass
        if time.perf_counter() > deadline:
            raise CheckFailed(f"/healthz never reported fingerprint {fingerprint[:12]}")
        time.sleep(0.002)


def swap(conn: Connection, artifact: str, fingerprint: str) -> float:
    """``POST /swap`` then wait for ``/healthz``; returns seconds taken."""
    started = time.perf_counter()
    status, body = conn.call("POST", "/swap", {"artifact": artifact})
    if status != 200:
        raise CheckFailed(f"/swap answered {status}: {body}")
    wait_healthy(conn, fingerprint)
    return time.perf_counter() - started


def check_distribution(probabilities: Any) -> bool:
    """True when *probabilities* is a 3-class probability distribution."""
    if not isinstance(probabilities, list) or len(probabilities) != 3:
        return False
    if not all(isinstance(p, float) and math.isfinite(p) and p >= 0.0 for p in probabilities):
        return False
    return abs(sum(probabilities) - 1.0) <= 1e-6


# -- open-loop driver ------------------------------------------------------------


@dataclass
class Swap:
    """A ``/swap`` due at *offset* seconds into a phase."""

    offset: float
    artifact: str
    fingerprint: str


@dataclass
class PhaseResult:
    sent: int = 0
    served: int = 0
    shed: int = 0
    failed: int = 0
    bad_outputs: int = 0
    #: Client latency from due time, ms; failed and shed are ``inf``.
    latency_ms: List[float] = field(default_factory=list)
    server_ms: List[float] = field(default_factory=list)
    client_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    swap_ms: List[float] = field(default_factory=list)

    def percentile(self, q: float) -> float:
        return nearest_rank(self.latency_ms, q)

    @classmethod
    def pooled(cls, results: Sequence["PhaseResult"]) -> "PhaseResult":
        """One result holding every request of *results*."""
        pooled = cls()
        for result in results:
            for name, value in vars(result).items():
                setattr(pooled, name, getattr(pooled, name) + value)
        return pooled


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries sort last."""
    if not values:
        return math.inf
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def drive(
    server: ServerProcess,
    bodies: Sequence[bytes],
    due: np.ndarray,
    picks: np.ndarray,
    swaps: Sequence[Swap] = (),
    workers: int = 2,
) -> PhaseResult:
    """Issue ``bodies[picks[i]]`` at ``due[i]`` from *workers* threads.

    Swaps ride in the same schedule, so the load never uses more than
    *workers* threads or connections.
    """
    jobs: List[Tuple[float, int, Optional[Swap]]] = [
        (float(t), int(p), None) for t, p in zip(due, picks)
    ]
    jobs += [(s.offset, -1, s) for s in swaps]
    jobs.sort(key=lambda job: job[0])
    result = PhaseResult()
    lock = threading.Lock()
    cursor = [0]
    errors: List[BaseException] = []
    start = time.perf_counter() + 0.02

    def work() -> None:
        conn = server.connect()
        try:
            while not errors:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(jobs):
                    return
                offset, pick, swap_job = jobs[index]
                due_at = start + offset
                delay = due_at - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent_at = time.perf_counter()
                if swap_job is not None:
                    seconds = swap(conn, swap_job.artifact, swap_job.fingerprint)
                    with lock:
                        result.swap_ms.append(seconds * 1000.0)
                    continue
                outcome, body = "failed", None
                try:
                    status, body = conn.call("POST", "/predict", bodies[pick])
                    if status == 200:
                        outcome = "served"
                    elif status == 429:
                        outcome = "shed"
                except (ConnectionError, ValueError):
                    pass
                done = time.perf_counter()
                with lock:
                    result.sent += 1
                    result.late_ms.append((sent_at - due_at) * 1000.0)
                    if outcome != "served":
                        setattr(result, outcome, getattr(result, outcome) + 1)
                        result.latency_ms.append(math.inf)
                        continue
                    result.served += 1
                    if not check_distribution(body.get("probabilities")):
                        result.bad_outputs += 1
                    result.latency_ms.append((done - due_at) * 1000.0)
                    result.client_ms.append((done - sent_at) * 1000.0)
                    result.server_ms.append(float(body.get("latency_ms", 0.0)))
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=work, name=f"perfbench-load-{i}") for i in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return result
