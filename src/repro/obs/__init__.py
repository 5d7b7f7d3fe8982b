"""``repro.obs`` — dependency-free tracing and telemetry.

Four pieces:

* :mod:`repro.obs.tracer` — :class:`Span`/:class:`Tracer` span trees, the ambient
  process-wide tracer (no-op by default: one attribute lookup on the hot path),
  ``traceparent``-style cross-process propagation, and the ``REPRO_TRACE`` env toggle.
* :mod:`repro.obs.counters` — the global :data:`COUNTERS` registry unifying cache
  hit/miss and routing-kernel counters across the codebase.
* :mod:`repro.obs.metrics` — the one Prometheus text writer and parser: a
  :class:`Registry` of counters, histograms and scrape-time gauges (with the
  :data:`COUNTERS` bridge) behind every ``/metrics`` page, plus :func:`parse_metric`.
* :mod:`repro.obs.export` — Chrome trace-event JSON / JSONL exporters and
  self-time analysis helpers.
"""

from .counters import COUNTERS, CounterRegistry, hit_rate
from .metrics import Registry, iter_samples, parse_metric
from .export import (
    chrome_trace,
    format_tree,
    load_trace_file,
    self_times,
    top_spans,
    write_chrome_trace,
    write_jsonl,
)
from .tracer import (
    Span,
    Tracer,
    active_tracer,
    current_tracer,
    env_trace_path,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    set_tracer,
    use_tracer,
)

__all__ = [
    "COUNTERS",
    "CounterRegistry",
    "Registry",
    "Span",
    "Tracer",
    "active_tracer",
    "chrome_trace",
    "current_tracer",
    "env_trace_path",
    "format_traceparent",
    "format_tree",
    "hit_rate",
    "iter_samples",
    "load_trace_file",
    "new_span_id",
    "new_trace_id",
    "parse_metric",
    "parse_traceparent",
    "self_times",
    "set_tracer",
    "top_spans",
    "use_tracer",
    "write_chrome_trace",
    "write_jsonl",
]
