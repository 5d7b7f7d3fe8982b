"""Asyncio priority job queue of the online transpilation server.

The queue owns every :class:`JobRecord` the server knows about and implements the
scheduling policy between HTTP submission and execution:

* **Priority + fairness** — each job carries an integer priority (higher runs first).
  Among the clients whose best waiting job shares the top priority, dispatch rotates
  round-robin, so one client flooding the queue cannot starve another at the same
  priority.
* **Admission control** — the number of admitted-but-not-finished jobs is bounded;
  :meth:`JobQueue.submit` raises :class:`QueueFull` past the bound and the HTTP layer
  turns that into a ``429`` with a ``Retry-After`` hint.
* **Idempotent resubmission** — submissions are keyed by the job's content fingerprint;
  re-submitting work that is already queued, running, or recently finished returns the
  existing record instead of enqueueing a duplicate.
* **Cancellation** — queued jobs can be cancelled outright; running jobs only get a
  best-effort ``cancel_requested`` flag (a worker process cannot be interrupted safely).
* **Events** — every state transition is recorded with a timestamp and broadcast through
  an :class:`asyncio.Event`, which is what the streaming ``/v1/jobs/{id}/events``
  endpoint and the long-poll ``wait=`` query consume.

Everything in this module runs on the server's event loop thread; no locks are needed
because transitions never cross an ``await`` boundary mid-update.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
import uuid
from collections import OrderedDict
from typing import AsyncIterator, Dict, List, Optional

from ..obs.tracer import new_span_id, new_trace_id
from ..service.jobs import JobError, TranspileJob

#: Job lifecycle states (terminal states are DONE, FAILED, CANCELLED).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: Event state of one incrementally-routed QASM chunk of a streaming job.
STREAMING_CHUNK = "routed_chunk"

#: Anonymous submissions all share one fairness bucket.
DEFAULT_CLIENT = "anonymous"


class QueueFull(Exception):
    """Raised by :meth:`JobQueue.submit` when admission control rejects a job."""

    def __init__(self, depth: int, bound: int) -> None:
        super().__init__(f"queue is full ({depth}/{bound} jobs admitted)")
        self.depth = depth
        self.bound = bound


class JobRecord:
    """One submitted job: spec, lifecycle state, event history, and its result.

    The event history is a *capped tail*: at most :attr:`MAX_EVENTS` events are
    retained, older ones are dropped from the front and counted in
    :attr:`dropped_events` (``events_base`` is the absolute index of the first
    retained event, so streaming consumers index by absolute position and can
    detect the gap).  Lifecycle histories never get near the cap; it exists for
    streaming jobs, whose ``routed_chunk`` events would otherwise buffer an
    entire routed circuit in the record.
    """

    #: Retained event-tail length (the terminal event is always the newest, so
    #: trimming from the front can never drop it).
    MAX_EVENTS = 512

    def __init__(
        self,
        job: TranspileJob,
        *,
        client: str = DEFAULT_CLIENT,
        priority: int = 0,
        fingerprint: Optional[str] = None,
        trace_ctx: Optional[Dict] = None,
        streaming: Optional[Dict] = None,
    ) -> None:
        self.id = f"job-{uuid.uuid4().hex[:16]}"
        self.job = job
        self.fingerprint = fingerprint if fingerprint is not None else job.fingerprint()
        self.client = client or DEFAULT_CLIENT
        self.priority = int(priority)
        #: Parsed ``traceparent`` context from the submitting client (or ``None``).
        #: Deliberately *not* part of the job fingerprint: identical jobs dedupe and
        #: share cached results whether or not they are traced.
        self.trace_ctx = trace_ctx
        self.trace_id = trace_ctx["trace_id"] if trace_ctx else new_trace_id()
        #: Span ids are fixed at admission so repeated ``/trace`` reads are stable.
        self.server_span_id = new_span_id()
        self.queue_wait_span_id = new_span_id()
        #: Serialised span tree shipped back by the pool worker (empty when untraced).
        self.worker_trace: List[Dict] = []
        self.state = QUEUED
        self.cancel_requested = False
        self.from_cache = False
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.result_payload: Optional[Dict] = None  # TranspileResult.to_dict() form
        self.error: Optional[JobError] = None
        #: ``None`` for ordinary jobs; a ``{"window_gates", "chunk_gates"}`` dict for
        #: streaming submissions (run incrementally, bypassing the result cache).
        self.streaming = streaming
        self.events: List[Dict] = []
        #: Absolute index of ``events[0]`` (grows as the capped tail drops events).
        self.events_base = 0
        #: How many events have been dropped from the front of the history.
        self.dropped_events = 0
        self._changed = asyncio.Event()
        self._record_event(QUEUED, {"priority": self.priority, "client": self.client})

    # -- state transitions (called by the queue/runner, on the event loop) ----

    def _record_event(self, state: str, detail: Optional[Dict] = None) -> None:
        self.events.append({"state": state, "at": time.time(), "detail": detail or {}})
        excess = len(self.events) - self.MAX_EVENTS
        if excess > 0:
            del self.events[:excess]
            self.events_base += excess
            self.dropped_events += excess
        self._changed.set()
        self._changed = asyncio.Event()

    def record_chunk(self, seq: int, text: str) -> None:
        """Record one routed QASM chunk of a streaming job as a ``routed_chunk`` event."""
        self._record_event(
            STREAMING_CHUNK, {"seq": seq, "qasm": text, "lines": text.count("\n")}
        )

    def mark_running(self) -> None:
        self.state = RUNNING
        self.started_at = time.time()
        self._record_event(RUNNING, {"queue_wait_seconds": self.started_at - self.submitted_at})

    def finish(self, result_payload: Dict, *, from_cache: bool = False) -> None:
        self.state = DONE
        self.finished_at = time.time()
        self.result_payload = result_payload
        self.from_cache = from_cache
        detail = {
            "from_cache": from_cache,
            "cx_count": result_payload.get("metrics", {}).get("cx_count"),
            "depth": result_payload.get("metrics", {}).get("depth"),
            "pass_timings": result_payload.get("pass_timings", {}),
            "pass_timing_log": result_payload.get("pass_timing_log", []),
            "queued_seconds": self.queued_seconds,
            "running_seconds": self.running_seconds,
        }
        if self.trace_ctx is not None:
            # The submitting client is tracing: stream the merged server+worker tree in
            # the terminal event so event consumers need no second request.
            detail["trace"] = self.trace_spans()
        self._record_event(DONE, detail)

    def fail(self, error: JobError) -> None:
        self.state = FAILED
        self.finished_at = time.time()
        self.error = error
        self._record_event(FAILED, {"exc_type": error.exc_type, "message": error.message})

    def cancel(self) -> None:
        self.state = CANCELLED
        self.finished_at = time.time()
        self._record_event(CANCELLED, {})

    # -- queries --------------------------------------------------------------

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def queued_seconds(self) -> float:
        """Wall time spent waiting for a worker (submission → start, live until then)."""
        end = self.started_at if self.started_at is not None else self.finished_at
        if end is None:
            end = time.time()
        return max(0.0, end - self.submitted_at)

    @property
    def running_seconds(self) -> float:
        """Wall time spent executing (start → finish, live while running; 0 unstarted)."""
        if self.started_at is None:
            return 0.0
        end = self.finished_at if self.finished_at is not None else time.time()
        return max(0.0, end - self.started_at)

    def trace_spans(self) -> List[Dict]:
        """Server-side span tree of this job, with the worker's spans grafted in.

        Built on demand from the record's own timestamps (the event loop never runs a
        tracer): ``server.job`` covers admission → terminal, parented on the client's
        submit span when a ``traceparent`` was received; ``server.queue_wait`` covers
        the dispatch delay; the worker's serialized spans already parent themselves on
        ``server.job`` via the propagated context.
        """
        now = time.time()
        end = self.finished_at if self.finished_at is not None else now
        parent = self.trace_ctx.get("parent_id") if self.trace_ctx else None
        spans: List[Dict] = [
            {
                "trace_id": self.trace_id,
                "span_id": self.server_span_id,
                "parent_id": parent,
                "name": "server.job",
                "start": self.submitted_at,
                "end": end,
                "process": "server",
                "attrs": {
                    "job_id": self.id,
                    "state": self.state,
                    "client": self.client,
                    "priority": self.priority,
                    "from_cache": self.from_cache,
                },
            }
        ]
        if self.started_at is not None:
            spans.append(
                {
                    "trace_id": self.trace_id,
                    "span_id": self.queue_wait_span_id,
                    "parent_id": self.server_span_id,
                    "name": "server.queue_wait",
                    "start": self.submitted_at,
                    "end": self.started_at,
                    "process": "server",
                    "attrs": {"queue_wait_seconds": self.started_at - self.submitted_at},
                }
            )
        spans.extend(self.worker_trace)
        return spans

    def to_dict(self, *, include_result: bool = True) -> Dict:
        """JSON form served by ``GET /v1/jobs/{id}``."""
        payload: Dict = {
            "id": self.id,
            "name": self.job.name,
            "fingerprint": self.fingerprint,
            "client": self.client,
            "priority": self.priority,
            "state": self.state,
            "from_cache": self.from_cache,
            "cancel_requested": self.cancel_requested,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queued_seconds": self.queued_seconds,
            "running_seconds": self.running_seconds,
            "trace_id": self.trace_id,
            "dropped_events": self.dropped_events,
        }
        if self.streaming is not None:
            payload["streaming"] = dict(self.streaming)
        if self.error is not None:
            payload["error"] = self.error.to_dict()
        if include_result and self.result_payload is not None:
            payload["result"] = self.result_payload
        return payload

    # -- waiting and streaming ------------------------------------------------

    async def wait_terminal(self, timeout: Optional[float] = None) -> bool:
        """Block until the record reaches a terminal state; ``False`` on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.is_terminal:
            changed = self._changed
            if deadline is None:
                await changed.wait()
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            try:
                await asyncio.wait_for(changed.wait(), timeout=remaining)
            except asyncio.TimeoutError:
                return False
        return True

    async def stream_events(self, keepalive: float) -> AsyncIterator[Optional[Dict]]:
        """Yield every retained event, then live transitions until a terminal one.

        Indexing is by *absolute* event position: if the capped tail dropped events
        faster than this consumer read them, a synthetic ``events_dropped`` event is
        yielded for the gap before resuming at the oldest retained event.  ``None`` is
        yielded after each ``keepalive`` seconds without a transition.
        """
        index = self.events_base
        while True:
            changed = self._changed
            if index < self.events_base:
                dropped = self.events_base - index
                index = self.events_base
                yield {
                    "state": "events_dropped",
                    "at": time.time(),
                    "detail": {"dropped": dropped},
                }
            while index - self.events_base < len(self.events):
                event = self.events[index - self.events_base]
                index += 1
                yield event
                if event["state"] in TERMINAL_STATES:
                    return
            try:
                await asyncio.wait_for(changed.wait(), timeout=keepalive)
            except asyncio.TimeoutError:
                yield None


class JobQueue:
    """Priority queue with per-client fair dispatch and bounded admission."""

    def __init__(self, *, max_pending: int = 256, history_limit: int = 1024) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self.max_pending = max_pending
        self.history_limit = history_limit
        self._records: "OrderedDict[str, JobRecord]" = OrderedDict()
        self._by_fingerprint: Dict[str, JobRecord] = {}
        #: per-client heaps of ``(-priority, seq, record)``; lazily cleaned of
        #: cancelled entries when popped.
        self._client_heaps: Dict[str, List] = {}
        #: round-robin order of clients with waiting jobs (rotated on dispatch).
        self._client_order: List[str] = []
        self._seq = itertools.count()
        # Created lazily from inside the event loop: on Python 3.9 an asyncio.Event
        # built outside a running loop binds to the wrong loop.
        self._available: Optional[asyncio.Event] = None
        self._queued_count = 0
        self.in_flight = 0

    # -- submission -----------------------------------------------------------

    def admitted_depth(self) -> int:
        """Jobs currently queued or running (what admission control bounds)."""
        return self.pending_count() + self.in_flight

    def pending_count(self) -> int:
        """Jobs currently waiting (O(1) — polled on every submit and metrics scrape)."""
        return self._queued_count

    def submit(
        self,
        job: TranspileJob,
        *,
        client: str = DEFAULT_CLIENT,
        priority: int = 0,
        fingerprint: Optional[str] = None,
        trace_ctx: Optional[Dict] = None,
        streaming: Optional[Dict] = None,
    ) -> "tuple[JobRecord, bool]":
        """Admit a job; returns ``(record, resubmitted)``.

        ``resubmitted`` is ``True`` when an existing record with the same fingerprint was
        returned instead of a new admission (idempotent resubmission).  Raises
        :class:`QueueFull` when the admitted depth is at the bound.  ``fingerprint`` lets
        a caller that already computed the job's hash avoid recomputing it.
        """
        if fingerprint is None:
            fingerprint = job.fingerprint()
        existing = self.find_fingerprint(fingerprint)
        if existing is not None:
            return existing, True
        if self.admitted_depth() >= self.max_pending:
            raise QueueFull(self.admitted_depth(), self.max_pending)
        record = JobRecord(
            job, client=client, priority=priority, fingerprint=fingerprint,
            trace_ctx=trace_ctx, streaming=streaming,
        )
        self._records[record.id] = record
        self._by_fingerprint[fingerprint] = record
        self._push(record)
        self._trim_history()
        return record, False

    def admit_completed(
        self,
        job: TranspileJob,
        payload: Dict,
        *,
        client: str = DEFAULT_CLIENT,
        priority: int = 0,
        fingerprint: Optional[str] = None,
        trace_ctx: Optional[Dict] = None,
    ) -> JobRecord:
        """Register a record already satisfied by the result cache (never queued).

        Cache-served completions bypass admission control: they consume no queue slot
        and no worker, so rejecting them would only punish well-behaved clients.
        """
        record = JobRecord(
            job, client=client, priority=priority, fingerprint=fingerprint, trace_ctx=trace_ctx
        )
        record.finish(payload, from_cache=True)
        self._records[record.id] = record
        self._by_fingerprint[record.fingerprint] = record
        self._trim_history()
        return record

    # -- dispatch (consumed by the runner) ------------------------------------

    async def pop(self) -> JobRecord:
        """Wait for, then claim, the next runnable job (moves it to RUNNING)."""
        while True:
            record = self._pop_nowait()
            if record is not None:
                return record
            event = self._available_event()
            event.clear()
            await event.wait()

    def _pop_nowait(self) -> Optional[JobRecord]:
        while self._client_order:
            # Highest waiting priority across clients, then round-robin among the
            # clients whose best job carries it.
            best_priority: Optional[int] = None
            for client in self._client_order:
                head = self._peek_client(client)
                if head is not None and (best_priority is None or head.priority > best_priority):
                    best_priority = head.priority
            if best_priority is None:
                # every heap was exhausted by lazy cleanup
                self._client_order = [c for c in self._client_order if self._client_heaps.get(c)]
                if not self._client_order:
                    return None
                continue
            for offset, client in enumerate(self._client_order):
                head = self._peek_client(client)
                if head is None or head.priority != best_priority:
                    continue
                heapq.heappop(self._client_heaps[client])
                # rotate: the serviced client goes to the back of the round-robin
                order = self._client_order
                order.append(order.pop(offset))
                if not self._client_heaps[client]:
                    del self._client_heaps[client]
                    self._client_order.remove(client)
                self._queued_count -= 1
                self.in_flight += 1
                head.mark_running()
                return head
        return None

    def _peek_client(self, client: str) -> Optional[JobRecord]:
        heap = self._client_heaps.get(client)
        while heap:
            record = heap[0][2]
            if record.state == QUEUED:
                return record
            heapq.heappop(heap)  # cancelled (or otherwise settled) while waiting
        return None

    def task_done(self, record: JobRecord) -> None:
        """Mark a popped job finished (the record's own transition happened already)."""
        self.in_flight = max(0, self.in_flight - 1)

    # -- cancellation ---------------------------------------------------------

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued job; a running job only gets ``cancel_requested`` set.

        Returns the record; the caller inspects ``record.state`` to distinguish a true
        cancellation from a best-effort request.  Raises ``KeyError`` for unknown ids.
        """
        record = self._records[job_id]
        if record.state == QUEUED:
            record.cancel()
            self._queued_count -= 1
            self._by_fingerprint.pop(record.fingerprint, None)
        elif record.state == RUNNING:
            record.cancel_requested = True
        return record

    def fail_pending(self, message: str, *, exc_type: str = "ServerShutdown") -> int:
        """Fail every still-QUEUED record (shutdown: no dispatcher will ever run them).

        Returns how many records were settled.  Without this, a client blocked in a
        long-poll or event stream for an unstarted job would never see a terminal state.
        """
        failed = 0
        for record in self._records.values():
            if record.state != QUEUED:
                continue
            record.fail(
                JobError(
                    fingerprint=record.fingerprint,
                    job_name=record.job.name,
                    exc_type=exc_type,
                    message=message,
                )
            )
            self._queued_count -= 1
            if self._by_fingerprint.get(record.fingerprint) is record:
                del self._by_fingerprint[record.fingerprint]
            failed += 1
        return failed

    # -- lookups --------------------------------------------------------------

    def get(self, job_id: str) -> Optional[JobRecord]:
        return self._records.get(job_id)

    def find_fingerprint(self, fingerprint: str) -> Optional[JobRecord]:
        """The in-flight record a resubmission should coalesce onto, if any.

        Only queued/running records dedupe: a finished job's resubmission goes back
        through the result cache (producing a fresh cache-served record, visible in the
        hit-rate metrics), and failed/cancelled jobs are re-runnable.
        """
        record = self._by_fingerprint.get(fingerprint)
        if record is not None and record.state in (QUEUED, RUNNING):
            return record
        return None

    def records(self) -> List[JobRecord]:
        return list(self._records.values())

    # -- internals ------------------------------------------------------------

    def _available_event(self) -> asyncio.Event:
        if self._available is None:
            self._available = asyncio.Event()
        return self._available

    def _push(self, record: JobRecord) -> None:
        heap = self._client_heaps.setdefault(record.client, [])
        if record.client not in self._client_order:
            self._client_order.append(record.client)
        heapq.heappush(heap, (-record.priority, next(self._seq), record))
        self._queued_count += 1
        self._available_event().set()

    def _trim_history(self) -> None:
        """Bound the record map by evicting the oldest *terminal* records."""
        excess = len(self._records) - self.history_limit
        if excess <= 0:
            return
        for job_id in [
            job_id for job_id, record in self._records.items() if record.is_terminal
        ][:excess]:
            record = self._records.pop(job_id)
            if self._by_fingerprint.get(record.fingerprint) is record:
                del self._by_fingerprint[record.fingerprint]
