"""Bridge between the server's asyncio queue and the batch transpiler's worker pool.

:class:`JobRunner` owns N concurrent dispatcher tasks on the event loop.  Each one pops
a :class:`~repro.server.queue.JobRecord`, re-checks the shared
:class:`~repro.service.cache.ResultCache` (a duplicate submitted while its twin was
running finishes here without recomputing), and otherwise ships the job's dict payload
to the :class:`~repro.service.executor.WorkerPool` the offline
:class:`~repro.service.BatchTranspiler` runs on too, awaiting its future, so
transpilation never blocks the event loop and server results are bit-identical to the
batch path for the same fingerprint.  The pool owns the dead-worker policy: a killed
worker costs the jobs then running one rerun on a replacement pool, never a later job.

``use_processes=False`` asks the pool for threads, which tests and the in-process
example use to avoid fork costs.  Shutdown is graceful: ``stop()`` lets in-flight jobs
finish (bounded by ``timeout``), cancels the dispatcher tasks, and tears the pool down.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from ..service.cache import ResultCache
from ..service.executor import WorkerPool, default_worker_count
from ..service.jobs import JobError
from .metrics import ServerMetrics
from .queue import JobQueue, JobRecord


class JobRunner:
    """Drains the job queue onto a worker pool, settling records as jobs finish."""

    def __init__(
        self,
        queue: JobQueue,
        cache: ResultCache,
        metrics: ServerMetrics,
        *,
        concurrency: Optional[int] = None,
        max_workers: Optional[int] = None,
        use_processes: bool = True,
    ) -> None:
        self.queue = queue
        self.cache = cache
        self.metrics = metrics
        self.max_workers = default_worker_count() if max_workers is None else max(1, max_workers)
        #: Dispatcher-task count — how many jobs may be in flight at once.  ``0`` accepts
        #: submissions without ever running them (tests use this to pin jobs in QUEUED).
        self.concurrency = self.max_workers if concurrency is None else max(0, concurrency)
        self.use_processes = use_processes
        self._pool: Optional[WorkerPool] = None
        self._tasks: List[asyncio.Task] = []
        self._started = False

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Create the pool and spawn the dispatcher tasks (idempotent)."""
        if self._started:
            return
        self._started = True
        if self.concurrency > 0:
            self._pool = WorkerPool(self.max_workers, not self.use_processes)
        loop = asyncio.get_running_loop()
        for index in range(self.concurrency):
            self._tasks.append(loop.create_task(self._dispatch_loop(), name=f"repro-worker-{index}"))

    async def stop(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop dispatching: optionally wait for in-flight jobs, then tear down."""
        if drain and self.queue.in_flight:
            deadline = asyncio.get_running_loop().time() + timeout
            while self.queue.in_flight and asyncio.get_running_loop().time() < deadline:
                await asyncio.sleep(0.05)
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks.clear()
        # No dispatcher will ever pop the backlog now — settle it so waiters wake up.
        self.queue.fail_pending("server shut down before the job started")
        if self._pool is not None:
            self._pool.shutdown(False)
            self._pool = None
        self._started = False

    @property
    def pool_kind(self) -> str:
        """``"process"``, ``"thread"``, or ``"none"`` — what executes the jobs."""
        return "none" if self._pool is None else self._pool.kind

    # -- dispatch -------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            record = await self.queue.pop()
            try:
                await self._run_record(record)
            except asyncio.CancelledError:
                # Non-draining shutdown cancelled us mid-job: settle the record so
                # long-pollers wake up instead of waiting on RUNNING forever.
                if not record.is_terminal:
                    record.fail(
                        JobError(
                            fingerprint=record.fingerprint,
                            job_name=record.job.name,
                            exc_type="ServerShutdown",
                            message="server shut down before the job finished",
                        )
                    )
                raise
            except Exception as exc:  # noqa: BLE001 - a dispatcher must never die
                if not record.is_terminal:
                    record.fail(
                        JobError(
                            fingerprint=record.fingerprint,
                            job_name=record.job.name,
                            exc_type=type(exc).__name__,
                            message=str(exc),
                        )
                    )
            finally:
                self.queue.task_done(record)
                if record.is_terminal:
                    self._observe_terminal(record)

    async def _run_record(self, record: JobRecord) -> None:
        loop = asyncio.get_running_loop()
        if record.streaming is not None:
            await self._run_streaming(record)
            return
        # Re-check the shared cache off-loop: a twin job may have finished (or the batch
        # CLI may have written this fingerprint) since this record was admitted.
        payload = await loop.run_in_executor(None, self.cache.get, record.fingerprint)
        if payload is not None:
            record.finish(payload, from_cache=True)
            return
        # Trace context rides beside the job payload (never inside it — fingerprints are
        # content-addressed).  The worker parents its spans on this record's server span.
        trace_ctx = None
        if record.trace_ctx is not None:
            trace_ctx = {"trace_id": record.trace_id, "parent_id": record.server_span_id}
        raw = await asyncio.wrap_future(self._pool.submit(record.job.to_dict(), trace_ctx))
        # Publish to the cache BEFORE settling the record: a client released by its
        # long-poll may resubmit the same fingerprint immediately, and that submission
        # must find the cache entry already in place.  ``raw["result"]`` is trace-free
        # by construction (the worker ships spans under the top-level "trace" key), so
        # cached payloads never leak another request's span tree.
        if raw.get("ok", False):
            await loop.run_in_executor(
                None, self.cache.put, record.fingerprint, raw["result"]
            )
        self._settle(record, raw)

    async def _run_streaming(self, record: JobRecord) -> None:
        """Run a streaming job incrementally, posting ``routed_chunk`` events.

        Streaming jobs run on a server *thread* (never the process pool: the chunk
        callback must reach this record's event history), pull the job's QASM through
        the chunked reader, and route over a bounded window — the routed circuit is
        never materialised server-side.  Chunks land in the record's capped event tail
        as they are produced, so ``/v1/jobs/{id}/events`` consumers see routed prefixes
        while the tail of the circuit is still compiling.  The result cache is bypassed
        in both directions: there is no whole-result payload to cache.
        """
        import dataclasses

        from ..circuit import qasm as qasm_module
        from ..core.stream import stream_to, transpile_stream

        loop = asyncio.get_running_loop()
        spec = record.streaming

        def work() -> Dict:
            options = dataclasses.replace(
                record.job.options(), level="O0", layout_iterations=0
            )
            chunks = transpile_stream(
                qasm_module.loads_stream(record.job.qasm),
                record.job.target(),
                options=options,
                window_gates=int(spec["window_gates"]),
                chunk_gates=int(spec["chunk_gates"]),
            )

            class _Sink:
                seq = 0

                def write(self, text: str) -> None:
                    loop.call_soon_threadsafe(record.record_chunk, self.seq, text)
                    self.seq += 1

            return stream_to(chunks, _Sink())

        try:
            summary = await loop.run_in_executor(None, work)
        except Exception as exc:  # noqa: BLE001 - settle the record, never the loop
            record.fail(
                JobError(
                    fingerprint=record.fingerprint,
                    job_name=record.job.name,
                    exc_type=type(exc).__name__,
                    message=str(exc),
                )
            )
            return
        record.finish(
            {
                "streamed": True,
                "summary": summary,
                "metrics": {
                    "cx_count": summary["cx_count"],
                    "depth": summary["depth"],
                    "num_swaps": summary["num_swaps"],
                    "gate_count": summary["emitted_gates"],
                },
            },
            from_cache=False,
        )

    def _settle(self, record: JobRecord, raw: Dict) -> None:
        record.worker_trace = list(raw.get("trace", []))
        if raw.get("ok", False):
            record.finish(raw["result"], from_cache=False)
        else:
            record.fail(JobError.from_dict(raw["error"]))

    def _observe_terminal(self, record: JobRecord) -> None:
        metrics = self.metrics
        outcome = record.state if not record.from_cache else "cached"
        metrics.jobs_finished.inc(outcome=outcome)
        if record.started_at is not None:
            metrics.queue_wait.observe(record.started_at - record.submitted_at)
            if record.finished_at is not None and not record.from_cache:
                metrics.run_seconds.observe(record.finished_at - record.started_at)
        if record.finished_at is not None:
            metrics.total_seconds.observe(record.finished_at - record.submitted_at)
        if not record.from_cache and record.result_payload is not None:
            # Per-pass latency histograms come from the worker's timing log; cache-served
            # completions are skipped (their timings belong to the job that computed them).
            metrics.observe_pass_timings(record.result_payload.get("pass_timing_log", []))
            schedule = record.result_payload.get("schedule")
            if schedule and "duration" in schedule:
                # Schedule durations are integer nanoseconds; the histogram is in seconds.
                metrics.schedule_duration.observe(float(schedule["duration"]) * 1e-9)
