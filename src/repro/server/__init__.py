"""Online transpilation server: an asyncio HTTP job service above the batch layer.

Where :mod:`repro.service` is the *offline* execution layer (the caller owns the
process), this package turns the same pieces — :class:`~repro.service.TranspileJob`
fingerprints, the content-addressed :class:`~repro.service.ResultCache`, and the batch
worker entry point — into an *online* service that concurrent clients hit over HTTP:

* :class:`ReproServer` (:mod:`repro.server.app`) — stdlib-only asyncio HTTP/1.1 front
  end with JSON endpoints, streaming job events, Prometheus ``/metrics``, and graceful
  drain on shutdown.
* :class:`JobQueue` (:mod:`repro.server.queue`) — priority queue with per-client fair
  scheduling, bounded admission (429 backpressure), idempotent resubmission by job
  fingerprint, and cancellation.
* :class:`JobRunner` (:mod:`repro.server.runner`) — dispatches queued jobs onto a
  process pool off the event loop, sharing one result cache with the batch CLI.
* :class:`ServerMetrics` (:mod:`repro.server.metrics`) — the server's instruments and
  live-state gauges, declared on a :class:`repro.obs.metrics.Registry` (the one
  Prometheus renderer; read pages back with :func:`repro.obs.parse_metric`).

Start it with ``python -m repro serve`` and talk to it with :mod:`repro.client`.
"""

from .app import HTTPError, ReproServer, ThreadedServer
from .metrics import ServerMetrics
from .queue import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobQueue,
    JobRecord,
    QueueFull,
)
from .runner import JobRunner

__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "HTTPError",
    "JobQueue",
    "JobRecord",
    "JobRunner",
    "QUEUED",
    "QueueFull",
    "RUNNING",
    "ReproServer",
    "ServerMetrics",
    "ThreadedServer",
]
