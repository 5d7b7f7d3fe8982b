"""Process-wide counter registry unifying the repo's hot-path cache/kernel stats.

Before this module each cache kept private, mutually invisible numbers: the gate-matrix
and simulator-tensor ``lru_cache`` decorators hide theirs behind ``cache_info()``, and
the commutation and synthesis caches kept none.  :data:`COUNTERS` is the single sink:
hot paths call :meth:`CounterRegistry.inc` (a dict update — no locks, telemetry-grade
accuracy is enough under free-threading races), and caches whose stats live elsewhere
register a *provider* callback merged in at :meth:`CounterRegistry.snapshot` time.  The
exception is the per-instance ``ResultCache``: its ``CacheStats`` are served as the
``repro_cache_*`` gauges and are not copied here.

Naming convention: dotted lowercase paths, ``<subsystem>.<cache-or-kernel>.<event>`` —
e.g. ``cache.commutation.hits``, ``routing.sabre.swap_candidates_scored``.  The
Prometheus bridge in :mod:`repro.obs.metrics` re-exposes every snapshot entry as
``repro_obs_counter{name="..."}``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional


class CounterRegistry:
    """Named monotonically increasing counters plus pull-based providers."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}
        self._providers: Dict[str, Callable[[], Dict[str, int]]] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to a counter (creating it at zero)."""
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        """Current value of a pushed counter (providers are not consulted)."""
        return self._counts.get(name, 0)

    def register_provider(self, prefix: str, fn: Callable[[], Dict[str, int]]) -> None:
        """Register a callback whose values appear in snapshots under ``prefix.*``.

        Used by caches that already track their own stats (``functools.lru_cache``):
        rather than double-counting on the hot path, the registry
        pulls their numbers when a snapshot is taken.  Re-registering a prefix replaces
        the previous provider (idempotent module reloads).
        """
        self._providers[prefix] = fn

    def snapshot(self) -> Dict[str, int]:
        """Merged view of pushed counters and every provider's current values."""
        out = dict(self._counts)
        for prefix, fn in self._providers.items():
            try:
                values = fn()
            except Exception:  # pragma: no cover - a broken provider must not kill telemetry
                continue
            for key, value in values.items():
                out[f"{prefix}.{key}"] = int(value)
        return out

    def reset(self) -> None:
        """Zero all pushed counters (providers are external state and are untouched)."""
        self._counts.clear()

    def __len__(self) -> int:
        return len(self._counts) + len(self._providers)


#: The process-wide registry all instrumented code reports into.
COUNTERS = CounterRegistry()


def hit_rate(snapshot: Dict[str, int], prefix: str) -> Optional[float]:
    """Hit rate for a ``<prefix>.hits`` / ``<prefix>.misses`` counter pair, if present."""
    hits = snapshot.get(f"{prefix}.hits")
    misses = snapshot.get(f"{prefix}.misses")
    if hits is None and misses is None:
        return None
    total = (hits or 0) + (misses or 0)
    return (hits or 0) / total if total else 0.0
