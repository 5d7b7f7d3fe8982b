"""Prometheus text exposition: the one place that writes or parses the format.

A deliberately tiny instrumentation layer (the container has no ``prometheus_client``)
rendering the Prometheus text exposition format (version 0.0.4).  A :class:`Registry`
holds metric families and renders them in declaration order:

* :class:`Counter` — monotonically increasing, labelled per call
  (``requests.inc(route="/v1/jobs", code="2xx")``).  A counter nobody has incremented
  renders one zero sample, so its family is never empty.
* :class:`Histogram` — cumulative ``_bucket``/``_sum``/``_count`` series.  An
  unlabelled histogram always renders its single series; a labelled one
  (``labelnames=("pass",)``) renders one series per label set observed.
* gauges — read by callback at scrape time (:meth:`Registry.gauge`), so live state
  (queue depth, cache stats, the fleet node table) is never kept in sync event by event.
* :meth:`Registry.bridge_counters` — re-exposes every :data:`repro.obs.COUNTERS` entry
  as ``repro_obs_counter{name="..."}`` plus a hit-rate gauge per instrumented cache.

:func:`parse_metric` and :func:`iter_samples` read a rendered page back (tests and the
examples).  Instruments are updated on one event-loop thread, so no locking is
needed; callbacks read state that carries its own lock.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .counters import COUNTERS, hit_rate

#: Default latency buckets (seconds) — spans cache hits (~ms) to heavy circuits (minutes).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

#: Label pairs of one series, sorted by label name.
LabelKey = Tuple[Tuple[str, str], ...]
#: One rendered sample: ``(sample name, label pairs, value)``.
Sample = Tuple[str, LabelKey, float]


def _fmt(value: float) -> str:
    """Prometheus-friendly number formatting (integers without the trailing ``.0``)."""
    if value == float("inf"):
        return "+Inf"
    as_int = int(value)
    return str(as_int) if value == as_int else repr(float(value))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: ``\\`` , ``"`` and newline."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels(pairs: Iterable[Tuple[str, str]]) -> str:
    """Render label pairs in the given order (``{a="x",b="y"}``, or ``""`` if none)."""
    inner = ",".join(f'{key}="{_escape_label_value(value)}"' for key, value in pairs)
    return "{" + inner + "}" if inner else ""


def _key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing counter with free-form labels per increment."""

    kind = "counter"

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help_text = help_text
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def samples(self) -> Iterator[Sample]:
        if not self._values:
            yield self.name, (), 0
        for key in sorted(self._values):
            yield self.name, key, self._values[key]


class Histogram:
    """A cumulative histogram, one series per label set (see module docstring)."""

    kind = "histogram"

    def __init__(
        self, name: str, help_text: str, buckets: Sequence[float], labelnames: Sequence[str]
    ) -> None:
        self.name = name
        self.help_text = help_text
        self.buckets = tuple(sorted(buckets))
        #: label key -> [cumulative bucket counts, sum, count]
        self._series: Dict[LabelKey, list] = {}
        if not labelnames:
            self._series[()] = [[0] * len(self.buckets), 0.0, 0]

    def observe(self, value: float, **labels: str) -> None:
        key = _key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = [[0] * len(self.buckets), 0.0, 0]
        counts = series[0]
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                counts[index] += 1
        series[1] += value
        series[2] += 1

    def samples(self) -> Iterator[Sample]:
        for key in sorted(self._series):
            counts, total, count = self._series[key]
            for bound, bucket_count in zip(self.buckets, counts):
                yield f"{self.name}_bucket", key + (("le", _fmt(bound)),), bucket_count
            yield f"{self.name}_bucket", key + (("le", "+Inf"),), count
            yield f"{self.name}_sum", key, total
            yield f"{self.name}_count", key, count


class _CallbackFamily:
    """A family whose samples are read from ``read()`` at scrape time.

    ``read`` returns one number, or — when ``label`` names the one label dimension — a
    mapping from label value to number, rendered in sorted label order.
    """

    def __init__(
        self, name: str, help_text: str, kind: str, read: Callable, label: Optional[str]
    ) -> None:
        self.name = name
        self.help_text = help_text
        self.kind = kind
        self._read = read
        self._label = label

    def samples(self) -> Iterator[Sample]:
        values = self._read()
        if self._label is None:
            yield self.name, (), values
            return
        for label_value in sorted(values):
            yield self.name, ((self._label, label_value),), values[label_value]


class Registry:
    """Metric families rendered as one Prometheus text page, in declaration order."""

    def __init__(self) -> None:
        self._families: Dict[str, object] = {}  # insertion order = declaration order

    def _add(self, family):
        if family.name in self._families:
            raise ValueError(f"metric family {family.name!r} is already registered")
        self._families[family.name] = family
        return family

    def counter(self, name: str, help_text: str) -> Counter:
        return self._add(Counter(name, help_text))

    def histogram(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labelnames: Sequence[str] = (),
    ) -> Histogram:
        return self._add(Histogram(name, help_text, buckets, labelnames))

    def gauge(
        self, name: str, help_text: str, read: Callable, label: Optional[str] = None
    ) -> None:
        """A gauge whose value (or ``{label value: value}`` mapping) ``read()`` returns."""
        self._add(_CallbackFamily(name, help_text, "gauge", read, label))

    def bridge_counters(self) -> None:
        """Expose :data:`COUNTERS` and a hit rate per ``<cache>.hits``/``.misses`` pair."""
        self._add(_CallbackFamily(
            "repro_obs_counter", "Unified observability counters (repro.obs)",
            "counter", COUNTERS.snapshot, "name",
        ))
        self.gauge(
            "repro_obs_cache_hit_rate", "Hit rate per instrumented cache",
            _cache_hit_rates, "cache",
        )

    def render(self) -> str:
        lines: List[str] = []
        for family in self._families.values():
            lines.append(f"# HELP {family.name} {family.help_text}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for sample, labels, value in family.samples():
                lines.append(f"{sample}{_labels(labels)} {_fmt(value)}")
        return "\n".join(lines) + "\n"


def _cache_hit_rates() -> Dict[str, float]:
    snapshot = COUNTERS.snapshot()
    prefixes = {
        name.rsplit(".", 1)[0]
        for name in snapshot
        if name.endswith(".hits") or name.endswith(".misses")
    }
    return {prefix: hit_rate(snapshot, prefix) for prefix in prefixes}


def parse_metric(text: str, name: str, labels: Optional[Dict[str, str]] = None) -> float:
    """Read one sample back out of a Prometheus text page (tests and the examples)."""
    want = f"{name}{_labels(_key(labels or {}))}"
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        parts = line.rsplit(" ", 1)
        if len(parts) == 2 and parts[0] == want:
            return float(parts[1])
    raise KeyError(f"metric {want!r} not found")


def iter_samples(text: str) -> Iterable[Tuple[str, float]]:
    """Yield ``(sample_name, value)`` pairs from a Prometheus text page."""
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        sample, value = line.rsplit(" ", 1)
        yield sample, float(value)
