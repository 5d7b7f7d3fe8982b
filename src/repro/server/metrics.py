"""The online transpilation server's instruments, declared on one :class:`Registry`.

The server exposes one :class:`ServerMetrics` page at ``GET /metrics`` (rendered by
:mod:`repro.obs.metrics`).  Gauges mirroring live state — queue depth, in-flight jobs,
the result cache's :class:`~repro.service.cache.CacheStats` — are read from the queue
and the cache at scrape time rather than being kept in sync event by event; the
process-wide :data:`repro.obs.COUNTERS` follow through the registry's counter bridge.
That bridge is per-process: with a process pool the workers' transpiler-side counters
stay in the pool, so it mostly reflects the server process (thread pools surface
everything).
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..obs.metrics import Registry
from ..service.cache import ResultCache
from .queue import JobQueue


class ServerMetrics(Registry):
    """All server instrumentation, rendered as one Prometheus text page.

    ``jobs_finished`` counts terminal transitions by outcome label (``done`` /
    ``failed`` / ``cancelled`` plus ``cached`` for cache-served completions); the
    latency histograms split per stage: admission→start (queue wait), start→finish
    (run), and the end-to-end submit→terminal wall time.
    """

    def __init__(self, queue: JobQueue, cache: ResultCache) -> None:
        super().__init__()
        self.gauge(
            "repro_queue_depth", "Jobs admitted and waiting to start", queue.pending_count
        )
        self.gauge("repro_jobs_in_flight", "Jobs currently executing", lambda: queue.in_flight)
        self.jobs_submitted = self.counter(
            "repro_jobs_submitted_total", "Jobs accepted for execution"
        )
        self.jobs_rejected = self.counter(
            "repro_jobs_rejected_total", "Submissions rejected by admission control (HTTP 429)"
        )
        self.jobs_deduplicated = self.counter(
            "repro_jobs_deduplicated_total",
            "Submissions answered by an existing record with the same fingerprint",
        )
        self.jobs_finished = self.counter(
            "repro_jobs_finished_total", "Jobs that reached a terminal state, by outcome"
        )
        self.requests = self.counter(
            "repro_http_requests_total", "HTTP requests served, by route and status code"
        )
        self.peer_cache_requests = self.counter(
            "repro_peer_cache_requests_total",
            "Peer cache lookups served over GET /v1/cache, by outcome",
        )
        self.gauge(
            "repro_cache_hit_rate",
            "Result-cache hit rate since server start",
            lambda: cache.stats.hit_rate,
        )
        # ``cache.stats`` is re-read per scrape: a fleet peer tier forwards it to its
        # local cache.
        for stat in ("hits", "disk_hits", "misses", "stores", "evictions"):
            self.gauge(
                f"repro_cache_{stat}",
                f"Result-cache cumulative {stat.replace('_', ' ')}",
                lambda stat=stat: getattr(cache.stats, stat),
            )
        self.queue_wait = self.histogram(
            "repro_job_queue_wait_seconds", "Time from admission to execution start"
        )
        self.run_seconds = self.histogram(
            "repro_job_run_seconds", "Execution time of jobs that ran (cache misses)"
        )
        self.total_seconds = self.histogram(
            "repro_job_total_seconds", "End-to-end time from submission to terminal state"
        )
        self.schedule_duration = self.histogram(
            "repro_schedule_duration_seconds",
            "Critical-path duration of schedules produced by schedule-enabled jobs",
            # Schedule makespans are microseconds-to-milliseconds, far below the
            # default wall-clock buckets.
            buckets=(1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0),
        )
        self.pass_seconds = self.histogram(
            "repro_pass_seconds",
            "Per-transpiler-pass wall time, labelled by pass name",
            labelnames=("pass",),
        )
        self.bridge_counters()

    def observe_pass_timings(self, timing_log: Iterable[Tuple[str, float]]) -> None:
        """Feed one job's per-pass timing log into the per-pass latency histograms."""
        for name, elapsed in timing_log:
            self.pass_seconds.observe(float(elapsed), **{"pass": str(name)})

