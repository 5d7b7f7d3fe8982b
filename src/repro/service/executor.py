"""Parallel batch executor for transpile jobs, and the one worker pool jobs run on.

:class:`BatchTranspiler` fans a list of :class:`~repro.service.jobs.TranspileJob` specs
across a :class:`WorkerPool`, which the server's job runner runs on too:

* **Content-addressed caching** — every job is looked up in a :class:`ResultCache` by its
  fingerprint before any work is scheduled; duplicate jobs inside one batch execute once.
* **Error isolation** — a job that raises produces a structured :class:`JobError` in its
  :class:`JobOutcome`; it never kills the batch or the pool.
* **Determinism** — jobs carry their own seeds and workers share no state, so a parallel
  run is bit-identical to a serial run of the same batch.
* **Dead workers** — at most one job per worker is in flight, so a worker that dies takes
  down only the jobs then running; :class:`WorkerPool` reruns each once on a new pool.

Workers exchange only JSON-safe payloads (the :meth:`TranspileResult.to_dict` form),
which is also exactly what the cache stores — one representation end to end.
"""

from __future__ import annotations

import os
import signal
import threading
import traceback
from concurrent.futures import FIRST_COMPLETED, Executor, Future, ProcessPoolExecutor, wait
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from functools import partial
from itertools import islice
from typing import Callable, Dict, List, Optional, Sequence

from ..core.pipeline import TranspileResult
from ..obs.tracer import Tracer, use_tracer
from .cache import ResultCache
from .jobs import JobError, JobOutcome, TranspileJob

#: ``progress(done, total, outcome)`` — invoked in the parent as each job settles.
ProgressCallback = Callable[[int, int, JobOutcome], None]


def _execute_one(payload: Dict, trace_ctx: Optional[Dict] = None) -> Dict:
    """Run one job dict, returning ``{"ok": ..., "result"|"error": ...}`` (never raises).

    ``trace_ctx`` (``{"trace_id", "parent_id"}``) rides *next to* the job payload, never
    inside it: the job fingerprint is content-addressed and two identical jobs must keep
    identical fingerprints whether or not they are traced.  When present, a worker-side
    tracer is installed for the duration of the job and its span tree is returned under
    the top-level ``"trace"`` key — deliberately outside ``"result"``, so the result
    payload that enters the shared :class:`ResultCache` stays trace-free (cached payloads
    are served to unrelated future requests).
    """
    job = TranspileJob.from_dict(payload)
    tracer = None
    if trace_ctx is not None:
        tracer = Tracer(
            trace_id=trace_ctx.get("trace_id"),
            parent_id=trace_ctx.get("parent_id"),
            process="worker",
        )
    try:
        with use_tracer(tracer) if tracer is not None else nullcontext():
            result = job.run()
        result_payload = result.to_dict()
        trace = result_payload.pop("trace", [])
        raw = {"ok": True, "result": result_payload}
        if trace:
            raw["trace"] = trace
        return raw
    except Exception as exc:  # noqa: BLE001 - error isolation is the contract
        error = JobError(
            fingerprint=job.fingerprint(),
            job_name=job.name,
            exc_type=type(exc).__name__,
            message=str(exc),
            traceback=traceback.format_exc(),
        )
        raw = {"ok": False, "error": error.to_dict()}
        if tracer is not None:
            raw["trace"] = tracer.span_dicts()
        return raw


def _fail(outer: Future, payload: Dict, exc_type: str, message: str) -> None:
    """Settle ``outer`` with the error record of a job that no worker process finished."""
    if outer.set_running_or_notify_cancel():  # False: its caller stopped waiting for it
        job = TranspileJob.from_dict(payload)
        error = JobError(job.fingerprint(), job.name, exc_type, message)
        outer.set_result({"ok": False, "error": error.to_dict()})


def _forget_parent_signals() -> None:
    """Pool worker start-up: under an asyncio server a forked worker shares the server's
    signal wakeup descriptor and SIGTERM handler, so the SIGTERM a broken pool sends the
    workers it has left would not stop them and would shut the server down instead."""
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


class WorkerPool:
    """The pool that runs :func:`_execute_one` for the batch executor and the server.

    Jobs run in worker processes (started by ``fork`` on Linux: a fresh interpreter would
    add about 0.2 s to every worker start), or in threads when the caller asks or no
    process pool can be created at start; :attr:`kind` says which.  A process pool broken
    by a dead worker is replaced once, by whichever thread sees the break first, and each
    job that was on it runs once more on the replacement.  A job whose second pool breaks
    too settles as a ``WorkerCrashed`` error record, and one that no pool could take (no
    worker could start) as the error that stopped it; error records are never cached.
    """

    def __init__(self, max_workers: int, threads: bool) -> None:
        self.max_workers = max_workers
        self.kind = "thread" if threads else "process"
        self._lock = threading.Lock()
        try:
            self._pool: Optional[Executor] = self._new_pool()
        except (OSError, RuntimeError):  # e.g. no working POSIX semaphores here
            self.kind = "thread"
            self._pool = self._new_pool()

    def _new_pool(self) -> Executor:
        if self.kind == "thread":
            return ThreadPoolExecutor(self.max_workers, thread_name_prefix="repro-transpile")
        return ProcessPoolExecutor(self.max_workers, initializer=_forget_parent_signals)

    def submit(self, payload: Dict, trace_ctx: Optional[Dict]) -> Future:
        """Run one job dict; the future resolves to :func:`_execute_one`'s record and never
        to a broken-pool error."""
        outer: Future = Future()
        self._attempt(outer, payload, trace_ctx, None)
        return outer

    def shutdown(self, wait: bool) -> None:
        """Stop taking jobs and cancel the queued ones; ``wait`` waits for the running ones."""
        with self._lock:
            pool, self._pool = self._pool, None
        pool.shutdown(wait=wait, cancel_futures=True)

    def _attempt(
        self, outer: Future, payload: Dict, trace_ctx: Optional[Dict], broken: Optional[Executor]
    ) -> None:
        # ``broken``: the pool the job's first attempt died on, replaced before anything is
        # submitted and never called (on Python 3.12+ its manager thread, which runs this,
        # holds its lock).  Errors settle the job here: a callback's exception is dropped.
        try:
            pool = self._pool if broken is None else self._replace(broken)
            while pool is not None:
                try:
                    inner = pool.submit(_execute_one, payload, trace_ctx)
                except BrokenProcessPool:  # it broke before this job reached it
                    pool = self._replace(pool)
                else:
                    done = partial(self._done, pool, outer, payload, trace_ctx, broken is not None)
                    return inner.add_done_callback(done)
        except Exception as exc:  # noqa: BLE001 - e.g. no worker process could start
            return _fail(outer, payload, type(exc).__name__, str(exc))
        outer.cancel()  # the pool was shut down

    def _replace(self, broken: Executor) -> Optional[Executor]:
        with self._lock:
            if self._pool is broken:
                pool = self._new_pool()
                # A thread holds the broken pool until its manager thread exits.  That
                # thread drops the last job that refers to the pool, and on Python 3.12+
                # freeing the pool there deadlocks it on the pool's own lock.
                threading.Thread(target=broken.shutdown, daemon=True).start()
                self._pool = pool
            return self._pool

    def _done(
        self, pool: Executor, outer: Future, payload: Dict, trace_ctx: Optional[Dict],
        retried: bool, inner: Future,
    ) -> None:
        # On a break this runs on the broken pool's manager thread: nothing here may block.
        error = None if inner.cancelled() else inner.exception()
        if inner.cancelled():
            outer.cancel()
        elif isinstance(error, BrokenProcessPool) and not retried:
            self._attempt(outer, payload, trace_ctx, pool)
        elif isinstance(error, BrokenProcessPool):
            message = "a worker process died running this job, on two pools in a row"
            _fail(outer, payload, "WorkerCrashed", message)
        elif outer.set_running_or_notify_cancel():  # False: its caller stopped waiting
            if error is None:
                outer.set_result(inner.result())
            else:
                outer.set_exception(error)


def default_worker_count() -> int:
    """Worker count used when ``max_workers=None`` (all cores, capped at 8)."""
    return max(1, min(8, os.cpu_count() or 1))


class BatchTranspiler:
    """Job-oriented execution service above the pass-manager core.

    Parameters
    ----------
    max_workers:
        Process count.  ``1`` (or ``0``/negative) runs everything serially in-process;
        ``None`` picks :func:`default_worker_count`.
    cache:
        Optional shared :class:`ResultCache`.  When omitted a private in-memory cache is
        created, so repeated jobs inside and across batches of this executor still hit.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        *,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.max_workers = default_worker_count() if max_workers is None else max(1, max_workers)
        self.cache = cache if cache is not None else ResultCache()

    # ------------------------------------------------------------------

    @property
    def stats(self):
        """Cache statistics of the executor's result cache."""
        return self.cache.stats

    def run(
        self,
        jobs: Sequence[TranspileJob],
        *,
        progress: Optional[ProgressCallback] = None,
    ) -> List[JobOutcome]:
        """Execute a batch, returning one :class:`JobOutcome` per job, in job order."""
        total = len(jobs)
        outcomes: List[Optional[JobOutcome]] = [None] * total
        done = 0

        def settle(index: int, outcome: JobOutcome) -> None:
            nonlocal done
            outcomes[index] = outcome
            done += 1
            if progress is not None:
                progress(done, total, outcome)

        def executed(fingerprint: str, raw: Dict) -> None:
            if raw.get("ok", False):
                self.cache.put(fingerprint, raw["result"])
            for index in pending[fingerprint]:
                settle(index, self._outcome_from_payload(jobs[index], fingerprint, raw, False))

        # Phase 1: resolve cache hits and dedupe identical jobs within the batch.
        pending: Dict[str, List[int]] = {}
        for index, job in enumerate(jobs):
            fingerprint = job.fingerprint()
            payload = self.cache.get(fingerprint)
            if payload is not None:
                settle(index, self._outcome_from_payload(job, fingerprint, payload, True))
            else:
                pending.setdefault(fingerprint, []).append(index)

        # Phase 2: execute the unique misses (parallel when it pays off).
        if self.max_workers <= 1 or len(pending) == 1:
            for fingerprint, indices in pending.items():
                executed(fingerprint, _execute_one(jobs[indices[0]].to_dict()))
        elif pending:
            self._run_parallel(jobs, pending, executed)
        missing = [i for i, o in enumerate(outcomes) if o is None]
        assert not missing, f"executor lost outcomes for job indices {missing}"
        return outcomes  # type: ignore[return-value]

    def run_one(self, job: TranspileJob) -> JobOutcome:
        """Convenience wrapper: run a single job through the cache + executor."""
        return self.run([job])[0]

    def results(self, jobs: Sequence[TranspileJob], **kwargs) -> List[TranspileResult]:
        """Run a batch and unwrap every outcome (raises on the first failed job)."""
        return [outcome.unwrap() for outcome in self.run(jobs, **kwargs)]

    # -- internals ----------------------------------------------------------

    def _outcome_from_payload(
        self, job: TranspileJob, fingerprint: str, raw: Dict, from_cache: bool
    ) -> JobOutcome:
        if from_cache or raw.get("ok", False):
            payload = raw if from_cache else raw["result"]
            result = TranspileResult.from_dict(payload)
            # Cache entries are shared between identically-configured jobs whatever they
            # are called; the display name always comes from *this* job (falling back to
            # the QASM parser's default for unnamed jobs, never the cached job's label).
            result.circuit.name = job.name or "qasm_circuit"
            return JobOutcome(
                job=job,
                fingerprint=fingerprint,
                result=result,
                from_cache=from_cache,
            )
        return JobOutcome(
            job=job,
            fingerprint=fingerprint,
            error=JobError.from_dict(raw["error"]),
        )

    def _run_parallel(
        self, jobs: Sequence[TranspileJob], pending: Dict[str, List[int]],
        executed: Callable[[str, Dict], None],
    ) -> None:
        """Run the misses on a :class:`WorkerPool`, at most one job per worker in flight."""
        workers = min(self.max_workers, len(pending))
        misses = iter(pending)
        running: Dict[Future, str] = {}
        finished: Dict[Future, str] = {}
        pool = WorkerPool(workers, False)
        try:
            while True:
                for fingerprint in islice(misses, workers - len(running)):
                    payload = jobs[pending[fingerprint][0]].to_dict()
                    running[pool.submit(payload, None)] = fingerprint
                # Refill before settling: the workers run on through the result decode,
                # the cache write and the progress callback.
                for future, fingerprint in finished.items():
                    executed(fingerprint, future.result())
                if not running:
                    return
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                finished = {future: running.pop(future) for future in done}
        finally:
            pool.shutdown(True)


def transpile_batch(
    jobs: Sequence[TranspileJob],
    *,
    max_workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[JobOutcome]:
    """One-shot helper: run a batch through a temporary :class:`BatchTranspiler`."""
    executor = BatchTranspiler(max_workers=max_workers, cache=cache)
    return executor.run(jobs, progress=progress)
