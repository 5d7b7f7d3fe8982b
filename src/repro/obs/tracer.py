"""Span-based tracing for the transpilation pipeline (dependency-free).

A :class:`Span` is one timed operation — a ``transpile()`` call, a pass invocation, a
queue wait — with a 128-bit trace id shared by every span of one request, a 64-bit span
id, a parent link, wall-clock start/end, and a dict of typed attributes.  A
:class:`Tracer` collects the spans of one process; span trees from different processes
(client, server event loop, pool worker) are merged by trace id downstream.

The hot-path contract: tracing is **off** by default and costs exactly one contextvar
read where instrumented code checks :func:`current_tracer`.  No span
objects, no clock reads, no allocations happen until a tracer is installed — the tier-1
overhead test pins this via :data:`SPANS_STARTED`.

Cross-process propagation follows the W3C ``traceparent`` header shape
(``00-<trace_id>-<parent_span_id>-01``): :func:`format_traceparent` /
:func:`parse_traceparent` are what ``repro.client`` sends and the server consumes.

The ``REPRO_TRACE`` environment variable enables tracing without code changes: any
truthy value turns the ambient tracer on; a value ending in ``.json`` additionally
makes :func:`repro.transpile` rewrite a Chrome-trace file there after every top-level
call.
"""

from __future__ import annotations

import os
import time
from contextvars import ContextVar
from typing import Dict, List, Optional

#: Total spans ever started in this process.  The no-op overhead contract test asserts
#: this does not move during an untraced ``transpile()`` — a counter-based (CI-stable)
#: stand-in for "zero tracing allocations on the disabled path".
SPANS_STARTED = 0


def new_trace_id() -> str:
    """A fresh 32-hex-digit trace id (W3C trace-context width)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 16-hex-digit span id.

    ``os.urandom`` rather than ``uuid.uuid4``: it is ~5x cheaper per call (span ids are
    minted once per span on the traced hot path) and equally fork-safe, which matters
    because process-pool workers mint ids for the same trace concurrently.
    """
    return os.urandom(8).hex()


def format_traceparent(trace_id: str, span_id: str) -> str:
    """Serialise a trace context into a ``traceparent``-style header value."""
    return f"00-{trace_id}-{span_id}-01"


def parse_traceparent(value: Optional[str]) -> Optional[Dict[str, str]]:
    """Parse a ``traceparent`` header into ``{"trace_id", "parent_id"}`` (None if invalid)."""
    if not value:
        return None
    parts = value.strip().split("-")
    if len(parts) != 4:
        return None
    _version, trace_id, parent_id, _flags = parts
    if len(trace_id) != 32 or len(parent_id) != 16:
        return None
    try:
        int(trace_id, 16), int(parent_id, 16)
    except ValueError:
        return None
    return {"trace_id": trace_id, "parent_id": parent_id}


class Span:
    """One timed operation in a trace tree."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start", "end", "attrs", "process")

    def __init__(
        self,
        name: str,
        *,
        trace_id: str,
        parent_id: Optional[str] = None,
        span_id: Optional[str] = None,
        start: Optional[float] = None,
        process: str = "local",
        attrs: Optional[Dict] = None,
    ) -> None:
        global SPANS_STARTED
        SPANS_STARTED += 1
        self.trace_id = trace_id
        self.span_id = span_id if span_id is not None else new_span_id()
        self.parent_id = parent_id
        self.name = name
        self.start = time.time() if start is None else start
        self.end: Optional[float] = None
        self.attrs: Dict = dict(attrs) if attrs else {}
        self.process = process

    def set(self, key: str, value) -> "Span":
        """Attach (or overwrite) one attribute; returns the span for chaining."""
        self.attrs[key] = value
        return self

    def finish(self, end: Optional[float] = None) -> "Span":
        if self.end is None:
            self.end = time.time() if end is None else end
        return self

    @property
    def duration(self) -> float:
        """Wall-clock seconds covered by the span (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def to_dict(self) -> Dict:
        """JSON-safe form shipped across process boundaries and stored in results."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end if self.end is not None else self.start,
            "process": self.process,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Span":
        span = cls(
            data["name"],
            trace_id=data.get("trace_id", ""),
            parent_id=data.get("parent_id"),
            span_id=data.get("span_id"),
            start=float(data.get("start", 0.0)),
            process=data.get("process", "local"),
            attrs=data.get("attrs") or {},
        )
        span.end = float(data.get("end", span.start))
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Span {self.name} {self.duration * 1000:.2f}ms attrs={self.attrs}>"


class _SpanContext:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._span.set("error", f"{exc_type.__name__}: {exc}")
        self._tracer.end_span(self._span)


class Tracer:
    """Collects the spans of one process for one (or more) traces.

    The tracer keeps a stack of open spans so nested ``span()`` blocks parent
    automatically; the server and the fleet coordinator, which interleave many jobs on
    one event loop, build span records with explicit parent ids instead.
    """

    def __init__(
        self,
        *,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        process: str = "local",
    ) -> None:
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        #: Parent span id for root spans of this tracer (cross-process link).
        self.parent_id = parent_id
        self.process = process
        self.finished: List[Span] = []
        self._stack: List[Span] = []

    # -- structured (stack-parented) spans ------------------------------------

    def span(self, name: str, **attrs) -> _SpanContext:
        """Open a child span of the innermost open span (context manager)."""
        return _SpanContext(self, self.start_span(name, **attrs))

    def start_span(self, name: str, **attrs) -> Span:
        parent = self._stack[-1].span_id if self._stack else self.parent_id
        span = Span(
            name, trace_id=self.trace_id, parent_id=parent, process=self.process, attrs=attrs
        )
        self._stack.append(span)
        return span

    def end_span(self, span: Span) -> Span:
        span.finish()
        # Close any abandoned inner spans so the stack cannot wedge on exceptions.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            top.finish()
            self.finished.append(top)
        self.finished.append(span)
        return span

    # -- export ---------------------------------------------------------------

    def span_dicts(self, *, since: int = 0) -> List[Dict]:
        """Serialised finished spans (``since`` slices from a prior ``len(finished)``)."""
        return [span.to_dict() for span in self.finished[since:]]

    def clear(self) -> None:
        self.finished.clear()
        self._stack.clear()

    def __len__(self) -> int:
        return len(self.finished)


# ---------------------------------------------------------------------------
# Ambient (process-wide) tracer
# ---------------------------------------------------------------------------

#: The ambient active tracer, held in a :class:`~contextvars.ContextVar` so each thread
#: (server thread-pool workers, the client's calling thread) sees its own installation —
#: a client exiting ``use_tracer`` can never clobber a worker's tracer mid-job.  ``None``
#: means tracing is disabled; the disabled hot path costs one contextvar read.
_ACTIVE: ContextVar[Optional[Tracer]] = ContextVar("repro_active_tracer", default=None)

#: Sentinel distinguishing "REPRO_TRACE not yet consulted" from "consulted, disabled".
_ENV_UNRESOLVED = object()
_env_tracer = _ENV_UNRESOLVED

TRACE_ENV = "REPRO_TRACE"


def current_tracer() -> Optional[Tracer]:
    """The installed ambient tracer, or ``None`` when tracing is disabled."""
    return _ACTIVE.get()


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or with ``None`` remove) the ambient tracer; returns the previous one.

    The installation is scoped to the current thread/context — other threads keep
    their own ambient tracer (or none).
    """
    previous = _ACTIVE.get()
    _ACTIVE.set(tracer)
    return previous


class use_tracer:
    """Temporarily install a tracer: ``with use_tracer(t): transpile(...)``."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self._tracer = tracer
        self._token = None

    def __enter__(self) -> Optional[Tracer]:
        self._token = _ACTIVE.set(self._tracer)
        return self._tracer

    def __exit__(self, *exc) -> None:
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None


def env_trace_path() -> Optional[str]:
    """The Chrome-trace output path configured via ``REPRO_TRACE``, if any."""
    value = os.environ.get(TRACE_ENV, "")
    return value if value.endswith(".json") else None


def active_tracer() -> Optional[Tracer]:
    """The ambient tracer, honouring the ``REPRO_TRACE`` environment toggle.

    Entry points (``transpile()``, ``ReproClient.submit``) call this instead of
    :func:`current_tracer`: when no tracer is installed but ``REPRO_TRACE`` is set to a
    truthy value, a process-wide tracer is created once and installed, so ``REPRO_TRACE=1
    repro transpile ...`` traces without any code opting in.  Instrumented inner code
    (pass manager, routers) keeps using :func:`current_tracer` — by the time it runs,
    the entry point has installed the tracer.
    """
    installed = _ACTIVE.get()
    if installed is not None:
        return installed
    global _env_tracer
    if _env_tracer is _ENV_UNRESOLVED:
        value = os.environ.get(TRACE_ENV, "")
        enabled = value not in ("", "0", "false", "no", "off")
        _env_tracer = Tracer(process="local") if enabled else None
    if _env_tracer is not None:
        set_tracer(_env_tracer)
    return _env_tracer


def _reset_env_tracer_for_tests() -> None:
    """Forget the memoised ``REPRO_TRACE`` decision (test isolation helper)."""
    global _env_tracer
    _env_tracer = _ENV_UNRESOLVED


