"""Parallel batch executor for transpile jobs.

:class:`BatchTranspiler` fans a list of :class:`~repro.service.jobs.TranspileJob` specs
across a ``concurrent.futures`` process pool:

* **Content-addressed caching** — every job is looked up in a :class:`ResultCache` by its
  fingerprint before any work is scheduled; duplicate jobs inside one batch execute once.
* **Error isolation** — a job that raises produces a structured :class:`JobError` in its
  :class:`JobOutcome`; it never kills the batch or the pool.
* **Determinism** — jobs carry their own seeds and workers share no state, so a parallel
  run is bit-identical to a serial run of the same batch.
* **Chunking** — misses are submitted in chunks to amortise process round trips; results
  stream back to an optional progress callback as chunks complete.

Workers exchange only JSON-safe payloads (the :meth:`TranspileResult.to_dict` form), which
is also exactly what the cache stores — one representation end to end.
"""

from __future__ import annotations

import math
import os
import traceback
from contextlib import nullcontext
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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


def _execute_chunk(payloads: List[Dict]) -> List[Dict]:
    """Worker entry point: run a chunk of job dicts serially inside one process."""
    return [_execute_one(payload) for payload in payloads]


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
    chunksize:
        Jobs per worker task.  ``None`` auto-sizes to about four chunks per worker.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        *,
        cache: Optional[ResultCache] = None,
        chunksize: Optional[int] = None,
    ) -> None:
        self.max_workers = default_worker_count() if max_workers is None else max(1, max_workers)
        self.cache = cache if cache is not None else ResultCache()
        self.chunksize = chunksize

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
        unique = list(pending)
        if unique:
            miss_jobs = [jobs[pending[fp][0]] for fp in unique]
            if self.max_workers <= 1 or len(unique) == 1:
                for fingerprint, job in zip(unique, miss_jobs):
                    raw = _execute_one(job.to_dict())
                    self._settle_executed(jobs, pending, {fingerprint: raw}, settle)
            else:
                self._run_parallel(jobs, pending, unique, miss_jobs, settle)
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

    def _settle_executed(
        self,
        jobs: Sequence[TranspileJob],
        pending: Dict[str, List[int]],
        executed: Dict[str, Dict],
        settle: Callable[[int, JobOutcome], None],
    ) -> None:
        for fingerprint, raw in executed.items():
            if raw.get("ok", False):
                self.cache.put(fingerprint, raw["result"])
            for index in pending[fingerprint]:
                settle(index, self._outcome_from_payload(jobs[index], fingerprint, raw, False))

    def _run_parallel(
        self,
        jobs: Sequence[TranspileJob],
        pending: Dict[str, List[int]],
        unique: List[str],
        miss_jobs: List[TranspileJob],
        settle: Callable[[int, JobOutcome], None],
    ) -> None:
        workers = min(self.max_workers, len(unique))
        chunksize = self.chunksize or max(1, math.ceil(len(unique) / (workers * 4)))
        chunks: List[Tuple[List[str], List[Dict]]] = []
        for start in range(0, len(unique), chunksize):
            fps = unique[start : start + chunksize]
            chunks.append((fps, [job.to_dict() for job in miss_jobs[start : start + chunksize]]))

        def settle_chunk(executed: Dict[str, Dict]) -> None:
            self._settle_executed(jobs, pending, executed, settle)

        def run_serially(fps: List[str]) -> List[Dict]:
            return [_execute_one(jobs[pending[fp][0]].to_dict()) for fp in fps]

        # Only pool mechanics live inside try blocks: an exception raised by settlement
        # (a user progress callback, result deserialization) must propagate, not be
        # mistaken for a pool failure and trigger double-settling serial re-execution.
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except (OSError, PermissionError, RuntimeError):
            # Pool creation failed (fork disallowed, ...): run the whole batch in-process.
            for fingerprint in unique:
                settle_chunk({fingerprint: run_serially([fingerprint])[0]})
            return

        with pool:
            try:
                future_to_fps = {
                    pool.submit(_execute_chunk, payloads): fps for fps, payloads in chunks
                }
            except RuntimeError:
                # Pool broke during submission; fall back serially for everything.
                for fingerprint in unique:
                    settle_chunk({fingerprint: run_serially([fingerprint])[0]})
                return
            not_done = set(future_to_fps)
            while not_done:
                finished, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for future in finished:
                    fps = future_to_fps[future]
                    try:
                        raw_list = future.result()
                    except Exception:  # noqa: BLE001 - BrokenProcessPool and kin
                        # Per-job exceptions never surface here (workers return
                        # structured errors); this is the pool dying under the chunk.
                        raw_list = run_serially(fps)
                    settle_chunk(dict(zip(fps, raw_list)))


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
