"""The online transpilation server: asyncio HTTP front end over queue + runner.

A deliberately dependency-free HTTP/1.1 implementation (shared plumbing in
:mod:`repro.server.http`), exposing the JSON API:

=============================  ==========================================================
``POST /v1/jobs``              submit one job, ``{"qasm": ..., "target": ...,
                               "options": ..., "name": ...}`` (the ``TranspileJob``
                               wire form plus ``priority``/``client``; an unknown
                               top-level, target or options key is a 400); returns
                               202 with the job id — or 200 immediately when the result
                               cache already holds the fingerprint.  ``"stream": true``
                               (with optional ``window_gates``/``chunk_gates``) runs the
                               job through the streaming O0 pipeline: routed QASM is
                               emitted incrementally as ``routed_chunk`` events on
                               ``/v1/jobs/{id}/events`` and the result cache is bypassed
``POST /v1/batch``             submit many jobs (``{"jobs": [body, ...]}`` plus batch-wide
                               ``priority``/``client``) atomically (all admitted or all
                               429)
``GET /v1/jobs``               summary list of known jobs
``GET /v1/jobs/{id}``          status/result; ``?wait=SECONDS`` long-polls for a terminal
                               state
``GET /v1/jobs/{id}/events``   chunked stream of state transitions (NDJSON), ending with
                               the terminal event and its pass-timing breakdown
``POST /v1/jobs/{id}/cancel``  cancel a queued job (``DELETE /v1/jobs/{id}`` is an alias)
``GET /v1/cache/{fingerprint}`` the locally cached result payload for a fingerprint, or
                               404 — the fleet's peer-fetch tier reads this
``GET /v1/targets``            named device topologies the server can build
``GET /v1/methods``            routing methods (registry-derived) and optimization levels
``GET /healthz``               readiness signal: queue depth, in-flight jobs, worker-pool
                               size, and shed state (what the fleet coordinator and
                               external load balancers probe)
``GET /metrics``               Prometheus text format
=============================  ==========================================================

Every JSON response body is compact, on one line.  Admission control returns ``429 Too
Many Requests`` with a ``Retry-After`` header once ``queue_bound`` jobs are admitted and
unfinished.  Failed jobs carry the worker's full traceback in their ``error`` object so
a 500-class failure is actionable from the client.  ``stop()`` drains in-flight work
before the loop exits (SIGTERM/SIGINT do the same under ``python -m repro serve``).
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, List, Optional, Tuple

from .. import __version__
from ..core.options import LEVEL_DESCRIPTIONS, OPTIMIZATION_LEVELS, TranspileOptions
from ..schedule.modes import SCHEDULE_MODES
from ..exceptions import ReproError
from ..hardware.target import Target
from ..hardware.topologies import TOPOLOGY_CATALOG
from ..obs.tracer import parse_traceparent
from ..service.cache import ResultCache
from ..service.jobs import TranspileJob
from ..transpiler.registry import registered_methods
from .http import (  # noqa: F401 - HTTPError/Request/ThreadedServer are re-exported API
    MAX_BODY_BYTES,
    AsyncHTTPServer,
    HTTPError,
    Request,
    ThreadedServer,
    _int_field,
    _match_pattern,
)
from .metrics import ServerMetrics
from .queue import (
    CANCELLED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    JobQueue,
    JobRecord,
    QueueFull,
)
from .runner import JobRunner

#: Cap on ``?wait=`` long-poll duration.
MAX_WAIT_SECONDS = 120.0
#: Blank-line keepalive cadence of the event stream — a transpile can sit silently
#: between ``running`` and ``done`` for minutes, and idle clients time out otherwise.
EVENTS_KEEPALIVE_SECONDS = 15.0


class ReproServer(AsyncHTTPServer):
    """The HTTP job service: owns the queue, the runner, the cache, and the listener."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8000,
        *,
        cache: Optional[ResultCache] = None,
        cache_dir: Optional[str] = None,
        queue_bound: int = 256,
        history_limit: int = 1024,
        concurrency: Optional[int] = None,
        max_workers: Optional[int] = None,
        use_processes: bool = True,
    ) -> None:
        super().__init__(host, port)
        self.cache = cache if cache is not None else ResultCache(directory=cache_dir)
        self.queue = JobQueue(max_pending=queue_bound, history_limit=history_limit)
        self.metrics = ServerMetrics(self.queue, self.cache)
        self.runner = JobRunner(
            self.queue,
            self.cache,
            self.metrics,
            concurrency=concurrency,
            max_workers=max_workers,
            use_processes=use_processes,
        )
        self.started_at = time.time()
        self._routes += [
            ("GET", "/healthz", self._handle_healthz),
            ("GET", "/v1/methods", self._handle_methods),
            ("GET", "/v1/targets", self._handle_targets),
            ("POST", "/v1/jobs", self._handle_submit),
            ("POST", "/v1/batch", self._handle_batch),
            ("GET", "/v1/jobs", self._handle_list_jobs),
            ("GET", "/v1/jobs/{id}", self._handle_get_job),
            ("GET", "/v1/jobs/{id}/trace", self._handle_trace),
            ("GET", "/v1/jobs/{id}/events", self._handle_events),
            ("POST", "/v1/jobs/{id}/cancel", self._handle_cancel),
            ("DELETE", "/v1/jobs/{id}", self._handle_cancel),
            ("GET", "/v1/cache/{fingerprint}", self._handle_cache_lookup),
        ]

    # -- lifecycle ------------------------------------------------------------

    async def _on_start(self) -> None:
        self.runner.start()

    async def _on_stop(self, *, drain: bool, timeout: float) -> None:
        await self.runner.stop(drain=drain, timeout=timeout)

    # -- job admission --------------------------------------------------------

    async def _admit(
        self,
        job: TranspileJob,
        *,
        client: str,
        priority: int,
        trace_ctx: Optional[Dict] = None,
        streaming: Optional[Dict] = None,
    ) -> Tuple[JobRecord, str]:
        """Admit one job; returns (record, disposition in {new, deduplicated, cached})."""
        fingerprint = job.fingerprint()
        if streaming is not None:
            # Streaming jobs bypass the result cache in both directions — their output
            # is emitted incrementally as events, never stored whole.  The suffixed
            # fingerprint keeps identical streaming submissions coalescing onto each
            # other while never colliding with a cached whole result.
            fingerprint = (
                f"{fingerprint}:stream"
                f":w{streaming['window_gates']}:c{streaming['chunk_gates']}"
            )
            return self._admit_atomic(
                job, fingerprint, None,
                client=client, priority=priority, trace_ctx=trace_ctx, streaming=streaming,
            )
        payload = None
        if self.queue.find_fingerprint(fingerprint) is None:
            loop = asyncio.get_running_loop()
            payload = await loop.run_in_executor(None, self.cache.get, fingerprint)
        return self._admit_atomic(
            job, fingerprint, payload, client=client, priority=priority, trace_ctx=trace_ctx
        )

    def _admit_atomic(
        self,
        job: TranspileJob,
        fingerprint: str,
        cached_payload,
        *,
        client: str,
        priority: int,
        trace_ctx: Optional[Dict] = None,
        streaming: Optional[Dict] = None,
    ) -> Tuple[JobRecord, str]:
        """The synchronous admission step — no awaits, so queue state cannot move
        underneath it (callers may pre-check headroom for a whole batch)."""
        if self.draining:
            raise HTTPError(503, "server is draining; not accepting new jobs")
        # Coalescing onto an in-flight twin takes precedence over the cache; the queue
        # owns that check (and its dedup counter) inside submit().
        if cached_payload is not None and self.queue.find_fingerprint(fingerprint) is None:
            record = self.queue.admit_completed(
                job,
                cached_payload,
                client=client,
                priority=priority,
                fingerprint=fingerprint,
                trace_ctx=trace_ctx,
            )
            self.metrics.jobs_submitted.inc()
            self.metrics.jobs_finished.inc(outcome="cached")
            self.metrics.total_seconds.observe(record.finished_at - record.submitted_at)
            return record, "cached"
        try:
            record, resubmitted = self.queue.submit(
                job,
                client=client,
                priority=priority,
                fingerprint=fingerprint,
                trace_ctx=trace_ctx,
                streaming=streaming,
            )
        except QueueFull as exc:
            self.metrics.jobs_rejected.inc()
            error = HTTPError(
                429, str(exc), queue_depth=exc.depth, queue_bound=exc.bound,
            )
            error.headers["Retry-After"] = "1"
            raise error from exc
        if resubmitted:
            self.metrics.jobs_deduplicated.inc()
            return record, "deduplicated"
        self.metrics.jobs_submitted.inc()
        return record, "new"

    @staticmethod
    def _submit_summary(record: JobRecord, disposition: str) -> Dict:
        return {
            "id": record.id,
            "fingerprint": record.fingerprint,
            "state": record.state,
            "from_cache": record.from_cache,
            "resubmitted": disposition == "deduplicated",
            "url": f"/v1/jobs/{record.id}",
        }

    # -- handlers -------------------------------------------------------------

    async def _handle_submit(self, request: Request, writer: asyncio.StreamWriter) -> None:
        data = request.json()
        job = job_from_payload(data)
        client = str(data.get("client") or request.client_id)
        priority = _int_field(data, "priority", default=0)
        trace_ctx = parse_traceparent(request.headers.get("traceparent"))
        streaming = None
        if data.get("stream"):
            from ..core.stream import DEFAULT_CHUNK_GATES, DEFAULT_WINDOW_GATES

            streaming = {
                "window_gates": _int_field(data, "window_gates", default=DEFAULT_WINDOW_GATES),
                "chunk_gates": _int_field(data, "chunk_gates", default=DEFAULT_CHUNK_GATES),
            }
        record, disposition = await self._admit(
            job, client=client, priority=priority, trace_ctx=trace_ctx, streaming=streaming
        )
        status = 200 if record.state not in (QUEUED, RUNNING) else 202
        await self._write_json(writer, status, self._submit_summary(record, disposition))

    async def _handle_batch(self, request: Request, writer: asyncio.StreamWriter) -> None:
        data = request.json()
        jobs = [job for _spec, job in batch_entries(data)]
        client = str(data.get("client") or request.client_id)
        priority = _int_field(data, "priority", default=0)
        # Phase 1 (awaits allowed): read the cache for every distinct fingerprint
        # without touching queue state.
        loop = asyncio.get_running_loop()
        fingerprints = [job.fingerprint() for job in jobs]
        cached: Dict[str, Dict] = {}
        for fingerprint in dict.fromkeys(fingerprints):
            payload = await loop.run_in_executor(None, self.cache.get, fingerprint)
            if payload is not None:
                cached[fingerprint] = payload
        # Phase 2 (no awaits — atomic on the event loop): admit everything or nothing.
        # Cache hits and jobs coalescing onto in-flight records consume no queue slot.
        needed = len({
            fingerprint
            for fingerprint in fingerprints
            if fingerprint not in cached and self.queue.find_fingerprint(fingerprint) is None
        })
        headroom = self.queue.max_pending - self.queue.admitted_depth()
        if needed > headroom:
            self.metrics.jobs_rejected.inc(amount=needed)
            error = HTTPError(
                429,
                f"batch needs {needed} queue slots but only {headroom} remain",
                queue_depth=self.queue.admitted_depth(),
                queue_bound=self.queue.max_pending,
            )
            error.headers["Retry-After"] = "1"
            raise error
        submissions = []
        trace_ctx = parse_traceparent(request.headers.get("traceparent"))
        for job, fingerprint in zip(jobs, fingerprints):
            record, disposition = self._admit_atomic(
                job,
                fingerprint,
                cached.get(fingerprint),
                client=client,
                priority=priority,
                trace_ctx=trace_ctx,
            )
            submissions.append(self._submit_summary(record, disposition))
        await self._write_json(writer, 202, {"jobs": submissions})

    async def _handle_get_job(
        self, request: Request, writer: asyncio.StreamWriter, id: str
    ) -> None:
        record = self._record_or_404(id)
        wait = request.query.get("wait")
        if wait is not None:
            try:
                timeout = min(float(wait), MAX_WAIT_SECONDS)
            except ValueError as exc:
                raise HTTPError(400, f"invalid wait value {wait!r}") from exc
            await record.wait_terminal(timeout=timeout)
        await self._write_json(writer, 200, record.to_dict())

    async def _handle_list_jobs(self, request: Request, writer: asyncio.StreamWriter) -> None:
        records = [record.to_dict(include_result=False) for record in self.queue.records()]
        await self._write_json(writer, 200, {"jobs": records, "count": len(records)})

    async def _handle_trace(
        self, request: Request, writer: asyncio.StreamWriter, id: str
    ) -> None:
        """Serve the job's span tree: server spans + the worker's shipped spans.

        With an optional ``wait=`` query it long-polls like ``GET /v1/jobs/{id}`` so a
        tracing client can fetch the complete tree right after the terminal event.
        """
        record = self._record_or_404(id)
        wait = request.query.get("wait")
        if wait is not None:
            try:
                timeout = min(float(wait), MAX_WAIT_SECONDS)
            except ValueError as exc:
                raise HTTPError(400, f"invalid wait value {wait!r}") from exc
            await record.wait_terminal(timeout=timeout)
        await self._write_json(
            writer,
            200,
            {
                "id": record.id,
                "state": record.state,
                "trace_id": record.trace_id,
                "spans": record.trace_spans(),
            },
        )

    async def _handle_events(
        self, request: Request, writer: asyncio.StreamWriter, id: str
    ) -> None:
        record = self._record_or_404(id)
        head = (
            f"HTTP/1.1 200 OK\r\n"
            f"Content-Type: application/x-ndjson; charset=utf-8\r\n"
            f"Transfer-Encoding: chunked\r\nConnection: close\r\n"
            f"Server: repro/{__version__}\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()

        async def send_chunk(data: bytes) -> None:
            writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
            await writer.drain()

        # Absolute event indexing: the record keeps a capped tail, so a consumer that
        # falls behind a streaming job's chunk events resumes at the oldest retained
        # event after an explicit ``events_dropped`` notice (never silently skips).
        index = record.events_base
        terminal_sent = False
        while not terminal_sent:
            changed = record.change_event()  # capture BEFORE scanning the event list
            if index < record.events_base:
                dropped = record.events_base - index
                index = record.events_base
                await send_chunk(
                    (
                        json.dumps(
                            {
                                "id": record.id,
                                "state": "events_dropped",
                                "at": time.time(),
                                "detail": {"dropped": dropped},
                            }
                        )
                        + "\n"
                    ).encode("utf-8")
                )
            while index - record.events_base < len(record.events):
                event = record.events[index - record.events_base]
                index += 1
                await send_chunk(
                    (json.dumps({"id": record.id, **event}) + "\n").encode("utf-8")
                )
                if event["state"] in TERMINAL_STATES:
                    terminal_sent = True
                    break
            if terminal_sent:
                break
            try:
                await asyncio.wait_for(changed.wait(), timeout=EVENTS_KEEPALIVE_SECONDS)
            except asyncio.TimeoutError:
                # Blank-line keepalive: clients skip empty lines; the traffic keeps
                # their socket (and any intermediary) from timing out a healthy job.
                await send_chunk(b"\n")
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    async def _handle_cancel(
        self, request: Request, writer: asyncio.StreamWriter, id: str
    ) -> None:
        record = self._record_or_404(id)
        was_queued = record.state == QUEUED
        record = self.queue.cancel(record.id)
        if record.state != CANCELLED:
            # Raising keeps the request metrics honest (a returned 409 would be
            # counted as a 2xx by _dispatch).
            raise HTTPError(
                409,
                f"job {record.id} is {record.state} and cannot be cancelled",
                state=record.state,
                cancel_requested=record.cancel_requested,
            )
        if was_queued:
            self.metrics.jobs_finished.inc(outcome="cancelled")
            self.metrics.total_seconds.observe(record.finished_at - record.submitted_at)
        payload = record.to_dict(include_result=False)
        payload["cancelled"] = True
        await self._write_json(writer, 200, payload)

    async def _handle_cache_lookup(
        self, request: Request, writer: asyncio.StreamWriter, fingerprint: str
    ) -> None:
        """Serve the *locally* cached payload for a fingerprint (the peer-fetch API).

        Deliberately local-only: when the cache is a fleet peer tier, answering a
        peer's lookup must never trigger a recursive peer fetch, so the tier's
        ``get_local`` is used when present.
        """
        getter = getattr(self.cache, "get_local", self.cache.get)
        loop = asyncio.get_running_loop()
        payload = await loop.run_in_executor(None, getter, fingerprint)
        if payload is None:
            self.metrics.peer_cache_requests.inc(outcome="miss")
            raise HTTPError(404, f"fingerprint {fingerprint[:16]}... is not cached here")
        self.metrics.peer_cache_requests.inc(outcome="hit")
        await self._write_json(
            writer, 200, {"fingerprint": fingerprint, "result": payload}
        )

    def health_payload(self) -> Dict:
        """The ``/healthz`` readiness document (also reused by the fleet heartbeat).

        ``ready`` means "this node can accept a new job right now": not draining and
        admission control has headroom.  ``shedding`` flags a saturated queue — the
        coordinator and external load balancers use it to steer traffic away before
        submissions start bouncing with 429s.
        """
        admitted = self.queue.admitted_depth()
        shedding = admitted >= self.queue.max_pending
        return {
            "status": "draining" if self.draining else "ok",
            "ready": not self.draining and not shedding,
            "version": __version__,
            "uptime_seconds": time.time() - self.started_at,
            "queue_depth": self.queue.pending_count(),
            "in_flight": self.queue.in_flight,
            "admitted_depth": admitted,
            "queue_bound": self.queue.max_pending,
            "shedding": shedding,
            "workers": self.runner.max_workers,
            "concurrency": self.runner.concurrency,
            "pool": self.runner.pool_kind,
            "cache": self.cache.stats.to_dict(),
        }

    async def _handle_healthz(self, request: Request, writer: asyncio.StreamWriter) -> None:
        await self._write_json(writer, 200, self.health_payload())

    async def _handle_methods(self, request: Request, writer: asyncio.StreamWriter) -> None:
        await self._write_json(writer, 200, methods_payload())

    async def _handle_targets(self, request: Request, writer: asyncio.StreamWriter) -> None:
        await self._write_json(writer, 200, targets_payload())

    # -- helpers --------------------------------------------------------------

    def _record_or_404(self, job_id: str) -> JobRecord:
        record = self.queue.get(job_id)
        if record is None:
            raise HTTPError(404, f"unknown job id {job_id!r}")
        return record


#: Top-level keys of a submission body: the job's wire form (``TranspileJob.to_dict()``)
#: plus the admission fields.  Any other key is a 400, so an option sent beside ``qasm``
#: instead of under ``options`` cannot silently compile a default job.
_SUBMISSION_KEYS = frozenset({
    "qasm", "target", "options", "name",
    "priority", "client", "stream", "window_gates", "chunk_gates",
})

#: Top-level keys of a ``/v1/batch`` body; the fleet coordinator merges ``priority`` and
#: ``client`` into each entry it forwards, so both are submission keys too.
_BATCH_KEYS = frozenset({"jobs", "priority", "client"})


def _reject_unknown_keys(data: Dict, allowed: frozenset, what: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise HTTPError(400, f"unknown {what} key(s): {', '.join(sorted(unknown))}")


def job_from_payload(data: Dict) -> TranspileJob:
    """Build a :class:`TranspileJob` from a submission body (shared with the fleet
    coordinator, which must compute the same fingerprint the node will).

    The body is the job's wire form plus admission fields (``priority``, ``client``,
    ``stream``...); ``target`` and ``options`` may be omitted for their defaults.  Any
    other top-level key is rejected.
    """
    _reject_unknown_keys(data, _SUBMISSION_KEYS, "submission")
    try:
        qasm_text = data.get("qasm")
        if not isinstance(qasm_text, str) or "OPENQASM" not in qasm_text:
            raise HTTPError(400, '"qasm" must be OpenQASM 2.0 source text')
        options = data.get("options")
        if options is not None and not isinstance(options, dict):
            raise HTTPError(400, '"options" must be a JSON object or null')
        return TranspileJob(
            qasm_text,
            _target_from_payload(data.get("target")),
            TranspileOptions.from_dict(options or {}),
            str(data.get("name") or ""),
        )
    except HTTPError:
        raise
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        raise HTTPError(400, f"invalid job specification: {exc}") from exc


def batch_entries(data: Dict) -> List[Tuple[Dict, TranspileJob]]:
    """Each entry of a ``/v1/batch`` body with its job (shared with the fleet
    coordinator).  Rejects unknown batch keys and names the failing entry's index."""
    _reject_unknown_keys(data, _BATCH_KEYS, "batch")
    specs = data.get("jobs")
    if not isinstance(specs, list) or not specs:
        raise HTTPError(400, '"jobs" must be a non-empty list of job specifications')
    entries = []
    for index, spec in enumerate(specs):
        if not isinstance(spec, dict):
            raise HTTPError(400, f"jobs[{index}] must be a JSON object")
        try:
            entries.append((spec, job_from_payload(spec)))
        except HTTPError as exc:
            raise HTTPError(exc.status, f"jobs[{index}]: {exc}") from exc
    return entries


def methods_payload() -> Dict:
    """The ``GET /v1/methods`` document (shared by node and coordinator)."""
    return {
        "routing_methods": [
            {
                "name": method.name,
                "description": method.description,
                "builtin": method.builtin,
                "requires_coupling": method.requires_coupling,
                "supports_best_of": method.supports_best_of,
            }
            for method in registered_methods()
        ],
        "schedule_modes": [
            {"name": mode, "description": description}
            for mode, description in SCHEDULE_MODES.items()
        ],
        "optimization_levels": [
            {"name": level, "description": LEVEL_DESCRIPTIONS[level]}
            for level in OPTIMIZATION_LEVELS
        ],
    }


def targets_payload() -> Dict:
    """The ``GET /v1/targets`` document (shared by node and coordinator)."""
    return {"targets": list(TOPOLOGY_CATALOG)}


def _target_from_payload(spec) -> Target:
    """Build a Target from a submission's ``target`` field.

    Accepts ``None`` (abstract all-to-all target), a ``Target.to_dict()`` form, or the
    shorthand ``{"topology": "linear", "num_qubits": 25, "calibrated": false}``.  An
    unknown key in either form is rejected.
    """
    if spec is None:
        return Target()
    if not isinstance(spec, dict):
        raise HTTPError(400, '"target" must be a JSON object or null')
    if "topology" in spec:
        unknown = set(spec) - {"topology", "num_qubits", "calibrated", "final_basis"}
        if unknown:
            raise HTTPError(400, f"unknown target key(s): {', '.join(sorted(unknown))}")
        return Target.from_topology(
            str(spec["topology"]),
            int(spec.get("num_qubits", 25)),
            calibrated=bool(spec.get("calibrated", False)),
            final_basis=str(spec.get("final_basis", "zsx")),
        )
    return Target.from_dict(spec)
