"""Batch transpilation service: job specs, content-addressed caching, parallel execution.

This is the job-oriented layer above the pass-manager core (``repro.core``), analogous to
the execution services real transpiler stacks ship above their circuit compilers:

* :class:`TranspileJob` — a serialisable spec of one ``transpile()`` call with a
  deterministic content fingerprint.
* :class:`ResultCache` / :class:`CacheStats` — content-addressed result cache (in-memory
  LRU plus optional on-disk JSON store).
* :class:`BatchTranspiler` — fans job batches across the worker pool it shares with the
  server, with per-job error capture, dead-worker reruns and progress callbacks.
* ``python -m repro`` (:mod:`repro.service.cli`) — command-line front end that regenerates
  the paper's artifacts through the batch executor.
"""

from .cache import CacheStats, ResultCache
from .executor import BatchTranspiler, default_worker_count, transpile_batch
from .jobs import JobError, JobOutcome, TranspileJob

__all__ = [
    "BatchTranspiler",
    "CacheStats",
    "JobError",
    "JobOutcome",
    "ResultCache",
    "TranspileJob",
    "default_worker_count",
    "transpile_batch",
]
