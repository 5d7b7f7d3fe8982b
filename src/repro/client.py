"""Python client of the online transpilation server (``python -m repro serve``).

Stdlib-only (``http.client`` + ``json``): no requests, no aiohttp.  The client speaks
the server's JSON API and converts payloads back into live objects, so a remote round
trip is a drop-in for a local :func:`repro.transpile` call::

    from repro.client import ReproClient

    client = ReproClient("http://127.0.0.1:8000")
    handle = client.submit(circuit, target, options)      # -> RemoteJob
    result = handle.result(timeout=60)                    # -> TranspileResult

Because submission builds the same :class:`~repro.service.TranspileJob` spec the batch
layer uses, the *client-side* fingerprint equals the server-side (and offline) one —
``handle.fingerprint`` can be compared against ``TranspileJob.fingerprint()`` to prove
a remote result corresponds to a given local compile.

``RemoteJob.events()`` iterates the server's chunked NDJSON stream of state
transitions (queued → running → done, the terminal event carrying the pass-timing
breakdown) as they happen.
"""

from __future__ import annotations

import json
import random
import time
from http.client import HTTPConnection
from typing import Dict, Iterator, List, Optional, Sequence, Union
from urllib.parse import urlencode, urlsplit

from .circuit.circuit import QuantumCircuit
from .core.options import TranspileOptions
from .core.pipeline import TranspileResult
from .exceptions import ReproError
from .hardware.target import Target
from .obs.tracer import active_tracer, format_traceparent
from .service.jobs import TranspileJob


class ServerError(ReproError):
    """An error response from the transpilation server.

    ``status`` is the HTTP code; for failed jobs, ``exc_type`` and ``traceback`` carry
    the worker-side exception so remote failures are as debuggable as local ones.
    """

    def __init__(
        self,
        message: str,
        *,
        status: int = 0,
        exc_type: str = "",
        traceback: str = "",
    ) -> None:
        super().__init__(message)
        self.status = status
        self.exc_type = exc_type
        self.traceback = traceback


class RetriesExhausted(ServerError):
    """The retry budget ran out on 429s / transient connection errors.

    ``status`` and ``last_body`` preserve the final response (status ``0`` and an
    empty body when the last attempt never reached the server), so callers can still
    inspect what the server last said — e.g. the queue depth in a 429 error document.
    """

    def __init__(
        self, message: str, *, status: int = 0, last_body: bytes = b"", attempts: int = 0
    ) -> None:
        super().__init__(message, status=status)
        self.last_body = last_body
        self.attempts = attempts


class JobFailed(ServerError):
    """A job reached the ``failed`` state; carries the worker's traceback."""


class JobCancelled(ServerError):
    """A job was cancelled before producing a result."""


class ReproClient:
    """Synchronous HTTP client for the online transpilation service.

    Works against a solo server (``python -m repro serve``) and a fleet coordinator
    (``python -m repro fleet coordinator``) alike — the wire API is identical.

    Transient failures retry automatically with exponential backoff and full jitter:
    HTTP 429 (backpressure — the server's ``Retry-After`` is honoured as a floor on
    the delay) and connection-level errors (refused, reset, timed out).  Retrying a
    submission is safe because jobs are content-fingerprinted and admission is
    idempotent: a duplicate that did reach the server coalesces server-side.  The
    budget is ``max_retries`` extra attempts; exhausting it raises
    :class:`RetriesExhausted` with the last response preserved.  ``max_retries=0``
    disables retrying entirely.
    """

    def __init__(
        self,
        url: str = "http://127.0.0.1:8000",
        *,
        timeout: float = 60.0,
        client_id: str = "",
        max_retries: int = 2,
        backoff_base: float = 0.25,
        backoff_cap: float = 4.0,
    ) -> None:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("", "http"):
            raise ValueError(f"only http:// URLs are supported, got {url!r}")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 8000
        self.timeout = timeout
        self.client_id = client_id
        self.max_retries = max(0, max_retries)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        # Injection points for tests (no wall-clock sleeps in the retry unit tests).
        self._sleep = time.sleep
        self._random = random.random

    # -- low-level transport --------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict] = None,
        *,
        timeout: Optional[float] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> Dict:
        status, body, _headers = self._raw_request_with_retries(
            method, path, payload, timeout=timeout, extra_headers=extra_headers
        )
        try:
            data = json.loads(body.decode("utf-8")) if body else {}
        except json.JSONDecodeError as exc:
            raise ServerError(
                f"server returned non-JSON body for {method} {path}", status=status
            ) from exc
        if status >= 400:
            error = data.get("error", {}) if isinstance(data, dict) else {}
            raise ServerError(
                error.get("message", f"HTTP {status} for {method} {path}"), status=status
            )
        return data

    def _raw_request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict] = None,
        *,
        timeout: Optional[float] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> "tuple[int, bytes, Dict[str, str]]":
        """One attempt; returns ``(status, body, lower-cased response headers)``."""
        connection = HTTPConnection(
            self.host, self.port, timeout=self.timeout if timeout is None else timeout
        )
        try:
            body = None
            headers = dict(extra_headers or {})
            if self.client_id:
                headers["X-Repro-Client"] = self.client_id
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            response_headers = {
                name.lower(): value for name, value in response.getheaders()
            }
            return response.status, response.read(), response_headers
        except (ConnectionError, OSError) as exc:
            raise ServerError(
                f"cannot reach transpilation server at http://{self.host}:{self.port}: {exc}"
            ) from exc
        finally:
            connection.close()

    def _retry_delay(self, attempt: int, retry_after: Optional[str]) -> float:
        """Full-jitter exponential backoff; the server's ``Retry-After`` is a floor."""
        backoff = min(self.backoff_cap, self.backoff_base * (2 ** attempt))
        delay = self._random() * backoff
        if retry_after:
            try:
                delay = max(delay, float(retry_after))
            except ValueError:
                pass
        return delay

    def _raw_request_with_retries(
        self,
        method: str,
        path: str,
        payload: Optional[Dict] = None,
        *,
        timeout: Optional[float] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> "tuple[int, bytes, Dict[str, str]]":
        attempts = self.max_retries + 1
        last_error: Optional[ServerError] = None
        last_status, last_body = 0, b""
        for attempt in range(attempts):
            try:
                status, body, headers = self._raw_request(
                    method, path, payload, timeout=timeout, extra_headers=extra_headers
                )
            except ServerError as exc:  # connection-level: nothing reached the server
                last_error, last_status, last_body = exc, 0, b""
                if attempt + 1 >= attempts:
                    break
                self._sleep(self._retry_delay(attempt, None))
                continue
            if status != 429:
                return status, body, headers
            last_error, last_status, last_body = None, status, body
            if attempt + 1 >= attempts:
                break
            self._sleep(self._retry_delay(attempt, headers.get("retry-after")))
        if attempts == 1 and last_error is not None:
            raise last_error  # retries disabled — surface the plain connection error
        detail = (
            str(last_error)
            if last_error is not None
            else "server kept answering HTTP 429 (backpressure)"
        )
        raise RetriesExhausted(
            f"{attempts} attempts for {method} {path} failed; last error: {detail}",
            status=last_status,
            last_body=last_body,
            attempts=attempts,
        )

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        circuit: Union[QuantumCircuit, str],
        target: Optional[Target] = None,
        options: Optional[TranspileOptions] = None,
        *,
        priority: int = 0,
        name: Optional[str] = None,
        **overrides,
    ) -> "RemoteJob":
        """Submit one compile (mirrors ``transpile()``'s signature); returns a handle.

        ``circuit`` may be a live :class:`QuantumCircuit` or OpenQASM 2.0 text.  The
        job spec — and therefore the fingerprint — is built locally, exactly as the
        offline batch path would build it.
        """
        if isinstance(circuit, str):
            from .circuit import qasm

            circuit = qasm.loads(circuit)
        job = TranspileJob.from_circuit(circuit, target, options, name=name, **overrides)
        return self.submit_job(job, priority=priority)

    def submit_job(self, job: TranspileJob, *, priority: int = 0) -> "RemoteJob":
        """Submit a prepared :class:`TranspileJob` spec.

        When tracing is enabled in this process (an ambient :class:`repro.obs.Tracer`
        or ``REPRO_TRACE``), the submission carries a ``traceparent`` header so the
        server threads the client's trace through queue admission and into the worker;
        :meth:`RemoteJob.result` then returns the merged client→server→worker tree in
        ``TranspileResult.trace``.
        """
        payload: Dict = {**job.to_dict(), "priority": priority}
        if self.client_id:
            payload["client"] = self.client_id
        tracer = active_tracer()
        client_spans: List[Dict] = []
        if tracer is not None:
            span = tracer.start_span(
                "client.submit", job=job.name, fingerprint=job.fingerprint()[:12]
            )
            headers = {"traceparent": format_traceparent(tracer.trace_id, span.span_id)}
            try:
                data = self._request("POST", "/v1/jobs", payload, extra_headers=headers)
                span.set("job_id", data.get("id"))
            finally:
                tracer.end_span(span)
            client_spans = [span.to_dict()]
        else:
            data = self._request("POST", "/v1/jobs", payload)
        return RemoteJob(self, data, client_spans=client_spans)

    def submit_batch(
        self, jobs: Sequence[TranspileJob], *, priority: int = 0
    ) -> List["RemoteJob"]:
        """Submit many jobs in one request (admitted atomically or rejected with 429)."""
        payload: Dict = {"jobs": [job.to_dict() for job in jobs], "priority": priority}
        if self.client_id:
            payload["client"] = self.client_id
        data = self._request("POST", "/v1/batch", payload)
        return [RemoteJob(self, entry) for entry in data.get("jobs", [])]

    # -- job inspection -------------------------------------------------------

    def job(self, job_id: str, *, wait: Optional[float] = None) -> Dict:
        """The full status dict of a job; ``wait`` long-polls for a terminal state."""
        path = f"/v1/jobs/{job_id}"
        if wait is not None:
            path += "?" + urlencode({"wait": wait})
        timeout = None if wait is None else max(self.timeout, wait + 10.0)
        return self._request("GET", path, timeout=timeout)

    def jobs(self) -> List[Dict]:
        """Summaries of every job the server currently remembers."""
        return self._request("GET", "/v1/jobs").get("jobs", [])

    def trace(self, job_id: str, *, wait: Optional[float] = None) -> Dict:
        """The job's span tree from ``GET /v1/jobs/{id}/trace``.

        Returns ``{"id", "state", "trace_id", "spans": [...]}``; the spans cover the
        server's admission/queue-wait bookkeeping plus — for jobs that actually executed
        with tracing on — the worker's per-pass tree.
        """
        path = f"/v1/jobs/{job_id}/trace"
        if wait is not None:
            path += "?" + urlencode({"wait": wait})
        timeout = None if wait is None else max(self.timeout, wait + 10.0)
        return self._request("GET", path, timeout=timeout)

    def result(self, job_id: str, *, timeout: Optional[float] = 300.0) -> TranspileResult:
        """Block until the job finishes and return its :class:`TranspileResult`.

        Raises :class:`JobFailed` (with the worker traceback) or :class:`JobCancelled`
        for unsuccessful terminal states, and :class:`ServerError` on timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        status = self.job(job_id)
        while status["state"] in ("queued", "running"):
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise ServerError(f"timed out waiting for job {job_id}")
            step = 30.0 if remaining is None else max(0.1, min(30.0, remaining))
            status = self.job(job_id, wait=step)
        return self._result_from_status(status)

    @staticmethod
    def _result_from_status(status: Dict) -> TranspileResult:
        state = status["state"]
        if state == "failed":
            error = status.get("error", {})
            raise JobFailed(
                f"job {status.get('id')} failed: "
                f"{error.get('exc_type', 'Exception')}: {error.get('message', '')}",
                exc_type=error.get("exc_type", ""),
                traceback=error.get("traceback", ""),
            )
        if state == "cancelled":
            raise JobCancelled(f"job {status.get('id')} was cancelled")
        if state != "done":
            raise ServerError(f"job {status.get('id')} is still {state}")
        return TranspileResult.from_dict(status["result"])

    def events(self, job_id: str) -> Iterator[Dict]:
        """Stream the job's state transitions live (blocks until the terminal event).

        Yields dicts of the form ``{"id", "state", "at", "detail"}``; the ``done``
        event's detail includes the pass-timing breakdown.
        """
        connection = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            headers = {"X-Repro-Client": self.client_id} if self.client_id else {}
            connection.request("GET", f"/v1/jobs/{job_id}/events", headers=headers)
            response = connection.getresponse()
            if response.status >= 400:
                body = response.read()
                try:
                    message = json.loads(body)["error"]["message"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    message = f"HTTP {response.status}"
                raise ServerError(message, status=response.status)
            while True:
                try:
                    line = response.readline()
                except (TimeoutError, OSError) as exc:
                    # A long-running pass can leave the stream quiet past the socket
                    # timeout; surface that as a ServerError, not a raw socket error.
                    raise ServerError(
                        f"event stream for job {job_id} stalled for more than "
                        f"{self.timeout:.0f}s: {exc}"
                    ) from exc
                if not line:
                    return
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))
        finally:
            connection.close()

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; ``False`` when the job was already running/terminal."""
        try:
            data = self._request("POST", f"/v1/jobs/{job_id}/cancel")
        except ServerError as exc:
            if exc.status == 409:
                return False
            raise
        return bool(data.get("cancelled", False))

    # -- service metadata -----------------------------------------------------

    def healthz(self) -> Dict:
        return self._request("GET", "/healthz")

    def targets(self) -> List[Dict]:
        return self._request("GET", "/v1/targets").get("targets", [])

    def methods(self) -> Dict:
        return self._request("GET", "/v1/methods")

    def metrics_text(self) -> str:
        """The raw Prometheus text page (parse with ``repro.obs.parse_metric``)."""
        status, body, _headers = self._raw_request_with_retries("GET", "/metrics")
        if status != 200:
            raise ServerError(f"GET /metrics returned HTTP {status}", status=status)
        return body.decode("utf-8")


class RemoteJob:
    """Handle to one submitted job: id, fingerprint, and result/event accessors."""

    def __init__(
        self, client: ReproClient, summary: Dict, *, client_spans: Optional[List[Dict]] = None
    ) -> None:
        self._client = client
        self.id: str = summary["id"]
        self.fingerprint: str = summary.get("fingerprint", "")
        self.resubmitted: bool = bool(summary.get("resubmitted", False))
        self._summary = summary
        #: Client-side spans of the submission (non-empty only when tracing was on).
        self._client_spans: List[Dict] = list(client_spans or [])

    def status(self) -> Dict:
        return self._client.job(self.id)

    @property
    def state(self) -> str:
        return self.status()["state"]

    def result(self, timeout: Optional[float] = 300.0) -> TranspileResult:
        """Block for the result; when traced at submit, merges the full span tree.

        ``result.trace`` then holds client submit → server job/queue-wait → worker
        execution (with one span per pass instance) — the complete cross-process tree.
        """
        result = self._client.result(self.id, timeout=timeout)
        if self._client_spans:
            try:
                remote = self._client.trace(self.id)
                result.trace = self._client_spans + list(remote.get("spans", []))
            except ServerError:
                # The trace is best-effort telemetry; the compile result stands alone.
                result.trace = list(self._client_spans)
        return result

    def trace(self, *, wait: Optional[float] = None) -> Dict:
        return self._client.trace(self.id, wait=wait)

    def events(self) -> Iterator[Dict]:
        return self._client.events(self.id)

    def cancel(self) -> bool:
        return self._client.cancel(self.id)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RemoteJob(id={self.id!r}, fingerprint={self.fingerprint[:12]!r}...)"


def transpile_remote(
    circuit: Union[QuantumCircuit, str],
    target: Optional[Target] = None,
    options: Optional[TranspileOptions] = None,
    *,
    url: str = "http://127.0.0.1:8000",
    timeout: float = 300.0,
    **overrides,
) -> TranspileResult:
    """One-shot convenience: submit, wait, and return the result (remote ``transpile``)."""
    client = ReproClient(url)
    handle = client.submit(circuit, target, options, **overrides)
    return handle.result(timeout=timeout)
