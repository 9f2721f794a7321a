"""Typed failure modes of the online serving layer.

Every way a request or an operator action can fail maps to one
exception class carrying an HTTP status, so the stdlib HTTP front-end,
the in-process client, and the CLI all classify failures the same way
(see ``docs/serving.md``).
"""

from __future__ import annotations


class ServingError(RuntimeError):
    """Base class for all serving failures.

    ``status`` is the HTTP status code the JSON front-end responds
    with; in-process callers get the exception itself.
    """

    status = 500

    @property
    def kind(self) -> str:
        """Stable machine-readable name used in JSON error bodies."""
        return type(self).__name__


class BadRequest(ServingError):
    """The request payload is malformed or missing required fields."""

    status = 400


class QueueFull(ServingError):
    """Backpressure: the scheduler's bounded queue is at capacity."""

    status = 429


class ModelUnavailable(ServingError):
    """No model version is published, or the service is shut down."""

    status = 503


class ServingUnavailable(ModelUnavailable):
    """The server itself cannot be reached (connection refused/reset).

    A subclass of :class:`ModelUnavailable` so existing callers that
    catch the broader condition keep working; clients raise it to
    distinguish "no route to the server" from "a reachable server with
    no model published".
    """

    status = 503


class DeadlineExceeded(ServingError):
    """The request's deadline elapsed before a batch could answer it."""

    status = 504


class AdmissionRejected(ServingError):
    """The fleet shed the request at enqueue time: the shallowest replica
    queue is too full — cheaper for everyone than timing out at the
    queue tail."""

    status = 429


class ReplicaFailure(ServingError):
    """A replica's batch runner failed; the router may retry elsewhere."""

    status = 503


class SwapError(ServingError):
    """A hot-swap was rejected (incompatible, corrupt, or probe-mismatched
    candidate); the active version keeps serving."""

    status = 409


class ArtifactError(ServingError):
    """A serving artifact is missing, corrupt, or fails validation."""

    status = 500
