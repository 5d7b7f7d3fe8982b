"""Content-addressed result cache for the batch transpilation service.

The cache maps a :meth:`TranspileJob.fingerprint` to the serialised
(:meth:`TranspileResult.to_dict`) payload of its result.  Two layers:

* an in-memory LRU bounded by ``max_entries`` (the hot set), and
* an optional on-disk JSON store (one ``<fingerprint>.json`` file per entry) that
  survives process restarts and is shared between concurrent runs.

A memory miss falls through to disk and promotes the entry back into memory.  All
operations are thread-safe and hit/miss/store/eviction counters are kept in
:class:`CacheStats` so callers (and tests) can verify that warm reruns perform zero new
transpile calls.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import uuid
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional


@dataclass
class CacheStats:
    """Hit/miss counters of a :class:`ResultCache`."""

    hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def total_hits(self) -> int:
        return self.hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.total_hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.total_hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict:
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def reset(self) -> None:
        self.hits = self.disk_hits = self.misses = self.stores = self.evictions = 0


class ResultCache:
    """LRU + optional-disk store of serialised transpile results, keyed by fingerprint."""

    def __init__(self, max_entries: int = 1024, directory: Optional[str] = None) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self.directory = directory
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, Dict]" = OrderedDict()
        self._lock = threading.Lock()
        self._warned_write_failure = False
        # The directory is created lazily on the first write, so read-only consumers
        # (e.g. ``repro cache stats``) never create it as a side effect.

    # -- core operations ----------------------------------------------------

    def get(self, fingerprint: str) -> Optional[Dict]:
        """The cached result payload for a fingerprint, or ``None`` on a miss."""
        with self._lock:
            payload = self._entries.get(fingerprint)
            if payload is not None:
                self._entries.move_to_end(fingerprint)
                self.stats.hits += 1
                return payload
            payload = self._read_disk(fingerprint)
            if payload is not None:
                self.stats.disk_hits += 1
                self._insert(fingerprint, payload)
                return payload
            self.stats.misses += 1
            return None

    def put(self, fingerprint: str, payload: Dict) -> None:
        """Store a result payload under its fingerprint (memory, and disk if enabled)."""
        with self._lock:
            self.stats.stores += 1
            self._insert(fingerprint, payload)
            self._write_disk(fingerprint, payload)

    def contains(self, fingerprint: str) -> bool:
        """True if the fingerprint is cached (without touching the hit/miss counters)."""
        with self._lock:
            return fingerprint in self._entries or (
                self._disk_path(fingerprint) is not None
                and os.path.exists(self._disk_path(fingerprint))
            )

    def clear(self, *, disk: bool = True) -> int:
        """Drop every entry; returns how many (memory + disk files) were removed."""
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
            if disk and self.directory and os.path.isdir(self.directory):
                for entry in os.listdir(self.directory):
                    if entry.endswith(".json"):
                        try:
                            os.remove(os.path.join(self.directory, entry))
                            removed += 1
                        except OSError:
                            pass
            return removed

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def disk_entries(self) -> int:
        """Number of entries currently stored on disk (0 when disk is disabled)."""
        if not self.directory or not os.path.isdir(self.directory):
            return 0
        return sum(1 for entry in os.listdir(self.directory) if entry.endswith(".json"))

    # -- internals ----------------------------------------------------------

    def _insert(self, fingerprint: str, payload: Dict) -> None:
        self._entries[fingerprint] = payload
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def _disk_path(self, fingerprint: str) -> Optional[str]:
        if not self.directory:
            return None
        return os.path.join(self.directory, f"{fingerprint}.json")

    def _read_disk(self, fingerprint: str) -> Optional[Dict]:
        path = self._disk_path(fingerprint)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None  # treat a corrupt/unreadable entry as a miss

    def _write_disk(self, fingerprint: str, payload: Dict) -> None:
        path = self._disk_path(fingerprint)
        if path is None:
            return
        # The temp name must be unique per *writer*, not just per process: the server,
        # the batch CLI, and multiple cache instances inside one process may all write
        # the same fingerprint concurrently.  uuid4 makes collisions impossible, and
        # os.replace keeps the publish atomic, so readers only ever see complete JSON.
        tmp_path = f"{path}.tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(tmp_path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_path, path)  # atomic publish so readers never see partial JSON
        except OSError as exc:
            # Disk persistence is best-effort (the in-memory layer still works), but an
            # unwritable cache directory must not fail silently: warn once so the user
            # learns why warm reruns keep recomputing.
            if not self._warned_write_failure:
                self._warned_write_failure = True
                print(
                    f"warning: result cache directory {self.directory!r} is not "
                    f"writable ({exc}); results will not persist to disk",
                    file=sys.stderr,
                )
            try:
                os.remove(tmp_path)
            except OSError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ResultCache(entries={len(self._entries)}, max={self.max_entries}, "
            f"dir={self.directory!r}, stats={self.stats.to_dict()})"
        )
