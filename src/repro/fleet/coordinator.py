"""The fleet coordinator: membership, consistent-hash placement, proxying, shedding.

Worker nodes register over HTTP and then heartbeat on a fixed cadence, each heartbeat
carrying the node's ``/healthz`` readiness document (queue depth, in-flight, shed
state) as capacity gossip.  Clients speak the ordinary ``/v1`` job API — the
coordinator is wire-compatible with a solo :class:`~repro.server.app.ReproServer`, so
:class:`repro.client.ReproClient` needs no fleet mode:

* **Placement** — a submission is parsed just far enough to compute its
  :class:`~repro.service.jobs.TranspileJob` content fingerprint, then routed along the
  fingerprint's :class:`~repro.fleet.ring.HashRing` preference list: first alive,
  unsaturated owner wins.  Identical jobs therefore always land on the node whose
  result cache already holds them (placement affinity), and a node join/leave remaps
  only ~K/N fingerprints.
* **Backpressure** — saturation is judged from heartbeat gossip; when every alive
  owner is shedding, the coordinator sheds the submission itself with
  ``429 Too Many Requests`` + ``Retry-After`` instead of piling onto a drowning node.
* **Failover** — the coordinator remembers each placement (including the submission
  body).  When a node dies mid-job, the next status poll reroutes: the job is
  resubmitted to a surviving owner and the response's job id is rewritten so the
  client never observes the failure.  Results stay correct because jobs are
  deterministic and content-addressed.
* **Tracing** — an incoming ``traceparent`` is honoured: the coordinator inserts a
  ``coordinator.place`` span and forwards a child context, so client → coordinator →
  node → worker share one trace id (``GET /v1/jobs/{id}/trace`` returns the merged
  tree).
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from .. import __version__
from ..obs.tracer import Span, format_traceparent, new_trace_id, parse_traceparent
from ..server.app import batch_entries, job_from_payload, methods_payload, targets_payload
from ..server.http import AsyncHTTPServer, HTTPError, Request
from . import httpclient
from .httpclient import FetchError
from .metrics import FleetMetrics
from .ring import DEFAULT_VNODES, HashRing

#: Heartbeat cadence the coordinator asks nodes to keep (seconds).
DEFAULT_HEARTBEAT_INTERVAL = 2.0
#: Most placements the coordinator remembers for status proxying/failover; beyond
#: this, the oldest entries are dropped (their nodes still serve them directly).
PLACEMENT_HISTORY_LIMIT = 4096
#: Headers forwarded from the client to the placed node.
_FORWARD_HEADERS = ("x-repro-client",)


class NodeState:
    """One registered worker node: address, heartbeat freshness, gossiped health."""

    def __init__(self, node_id: str, url: str) -> None:
        self.node_id = node_id
        self.url = url.rstrip("/")
        self.registered_at = time.time()
        self.last_heartbeat = self.registered_at
        self.health: Dict = {}
        self.dead = False  # set eagerly on transport failure, cleared by a heartbeat

    def alive(self, now: float, ttl: float) -> bool:
        return not self.dead and (now - self.last_heartbeat) <= ttl

    @property
    def saturated(self) -> bool:
        """Heartbeat gossip says the node would shed a submission right now."""
        return not self.health.get("ready", True)

    def to_dict(self, now: float, ttl: float) -> Dict:
        return {
            "id": self.node_id,
            "url": self.url,
            "alive": self.alive(now, ttl),
            "heartbeat_age_seconds": now - self.last_heartbeat,
            "health": self.health,
        }


class Placement:
    """Where one job lives: the id the client holds vs. the id on the current node
    (they diverge after a failover reroute), plus what is needed to reroute again."""

    __slots__ = ("client_id", "remote_id", "node_id", "fingerprint", "payload", "spans")

    def __init__(
        self,
        client_id: str,
        node_id: str,
        fingerprint: str,
        payload: Dict,
        spans: List[Dict],
    ) -> None:
        self.client_id = client_id
        self.remote_id = client_id
        self.node_id = node_id
        self.fingerprint = fingerprint
        self.payload = payload
        self.spans = spans


class FleetCoordinator(AsyncHTTPServer):
    """HTTP front door of the fleet (see module docstring)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8100,
        *,
        replicas: int = 2,
        vnodes: int = DEFAULT_VNODES,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_ttl: Optional[float] = None,
    ) -> None:
        super().__init__(host, port)
        self.replicas = max(1, replicas)
        self.heartbeat_interval = heartbeat_interval
        #: A node whose last heartbeat is older than this is considered dead.
        self.heartbeat_ttl = (
            heartbeat_ttl if heartbeat_ttl is not None else heartbeat_interval * 4.0
        )
        self.metrics = FleetMetrics(self._node_rows)
        self.ring = HashRing(vnodes=vnodes)
        self.nodes: Dict[str, NodeState] = {}
        self.placements: "OrderedDict[str, Placement]" = OrderedDict()
        self.started_at = time.time()
        self._reaper: Optional[asyncio.Task] = None
        self._routes += [
            ("POST", "/fleet/v1/register", self._handle_register),
            ("POST", "/fleet/v1/heartbeat", self._handle_heartbeat),
            ("POST", "/fleet/v1/deregister", self._handle_deregister),
            ("GET", "/fleet/v1/nodes", self._handle_nodes),
            ("GET", "/healthz", self._handle_healthz),
            ("GET", "/v1/methods", self._handle_methods),
            ("GET", "/v1/targets", self._handle_targets),
            ("POST", "/v1/jobs", self._handle_submit),
            ("POST", "/v1/batch", self._handle_batch),
            ("GET", "/v1/jobs", self._handle_list_jobs),
            ("GET", "/v1/jobs/{id}", self._handle_job_proxy),
            ("GET", "/v1/jobs/{id}/trace", self._handle_trace_proxy),
            ("GET", "/v1/jobs/{id}/events", self._handle_events_proxy),
            ("POST", "/v1/jobs/{id}/cancel", self._handle_cancel_proxy),
            ("DELETE", "/v1/jobs/{id}", self._handle_cancel_proxy),
        ]

    # -- lifecycle ------------------------------------------------------------

    async def _on_start(self) -> None:
        self._reaper = asyncio.get_running_loop().create_task(
            self._reap_loop(), name="fleet-reaper"
        )

    async def _on_stop(self, *, drain: bool, timeout: float) -> None:
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
            self._reaper = None

    async def _reap_loop(self) -> None:
        """Evict ring membership of nodes whose heartbeats went stale."""
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            now = time.time()
            for node in self.nodes.values():
                if node.node_id in self.ring and not node.alive(now, self.heartbeat_ttl):
                    node.dead = True
                    self.ring.remove(node.node_id)

    # -- membership API (what workers call) ------------------------------------

    def _membership(self) -> Dict:
        """What nodes need to mirror coordinator placement: the alive-node map."""
        now = time.time()
        return {
            "replicas": self.replicas,
            "heartbeat_interval": self.heartbeat_interval,
            "nodes": {
                node.node_id: node.url
                for node in self.nodes.values()
                if node.alive(now, self.heartbeat_ttl)
            },
        }

    async def _handle_register(self, request: Request, writer: asyncio.StreamWriter) -> None:
        data = request.json()
        node_id = str(data.get("node_id") or "")
        url = str(data.get("url") or "")
        if not node_id or not url:
            raise HTTPError(400, 'registration needs "node_id" and "url"')
        node = self.nodes.get(node_id)
        if node is None:
            node = self.nodes[node_id] = NodeState(node_id, url)
            self.metrics.registrations.inc()
        node.url = url.rstrip("/")
        node.last_heartbeat = time.time()
        node.dead = False
        if isinstance(data.get("health"), dict):
            node.health = data["health"]
        self.ring.add(node_id)
        await self._write_json(
            writer, 200, {"node_id": node_id, "known": True, **self._membership()}
        )

    async def _handle_heartbeat(self, request: Request, writer: asyncio.StreamWriter) -> None:
        data = request.json()
        node_id = str(data.get("node_id") or "")
        node = self.nodes.get(node_id)
        if node is None:
            # E.g. the coordinator restarted and lost its membership table; the worker
            # re-registers on seeing known=false.
            await self._write_json(writer, 200, {"node_id": node_id, "known": False})
            return
        node.last_heartbeat = time.time()
        node.dead = False
        if isinstance(data.get("url"), str) and data["url"]:
            node.url = data["url"].rstrip("/")
        if isinstance(data.get("health"), dict):
            node.health = data["health"]
        self.ring.add(node_id)  # resurrects a node the reaper had evicted
        self.metrics.heartbeats.inc(node=node_id)
        await self._write_json(
            writer, 200, {"node_id": node_id, "known": True, **self._membership()}
        )

    async def _handle_deregister(self, request: Request, writer: asyncio.StreamWriter) -> None:
        data = request.json()
        node_id = str(data.get("node_id") or "")
        node = self.nodes.pop(node_id, None)
        self.ring.remove(node_id)
        # Placements already on the departing node stay addressed to it while it
        # drains; once it is gone, the status proxy reroutes them on demand.
        await self._write_json(
            writer, 200, {"node_id": node_id, "removed": node is not None}
        )

    def _node_rows(self) -> List[Dict]:
        """The node table, sorted by node id (``/fleet/v1/nodes`` and the gauges)."""
        now = time.time()
        return [
            node.to_dict(now, self.heartbeat_ttl)
            for node in sorted(self.nodes.values(), key=lambda n: n.node_id)
        ]

    async def _handle_nodes(self, request: Request, writer: asyncio.StreamWriter) -> None:
        await self._write_json(
            writer,
            200,
            {
                "replicas": self.replicas,
                "heartbeat_interval": self.heartbeat_interval,
                "heartbeat_ttl": self.heartbeat_ttl,
                "vnodes": self.ring.vnodes,
                "nodes": self._node_rows(),
            },
        )

    # -- placement ------------------------------------------------------------

    def _candidates(self, fingerprint: str) -> List[NodeState]:
        """The fingerprint's full preference list, alive nodes only, affinity first."""
        now = time.time()
        owners = self.ring.owners(fingerprint, count=max(len(self.ring), 1))
        return [
            self.nodes[node_id]
            for node_id in owners
            if node_id in self.nodes and self.nodes[node_id].alive(now, self.heartbeat_ttl)
        ]

    def _shed(self, reason: str) -> HTTPError:
        self.metrics.sheds.inc()
        error = HTTPError(429, reason, nodes_alive=len(self._alive_nodes()))
        error.headers["Retry-After"] = "1"
        return error

    def _alive_nodes(self) -> List[NodeState]:
        now = time.time()
        return [n for n in self.nodes.values() if n.alive(now, self.heartbeat_ttl)]

    def _mark_dead(self, node: NodeState) -> None:
        node.dead = True
        self.ring.remove(node.node_id)
        self.metrics.proxy_errors.inc(node=node.node_id)

    def _forward_context(self, request: Request) -> Tuple[Dict[str, str], Span]:
        """Child trace context + passthrough headers for a forwarded submission."""
        ctx = parse_traceparent(request.headers.get("traceparent"))
        trace_id = ctx["trace_id"] if ctx else new_trace_id()
        span = Span(
            "coordinator.place",
            trace_id=trace_id,
            parent_id=ctx["parent_id"] if ctx else None,
            process="coordinator",
        )
        headers = {"traceparent": format_traceparent(trace_id, span.span_id)}
        for name in _FORWARD_HEADERS:
            if name in request.headers:
                headers[name] = request.headers[name]
        return headers, span

    async def _place_and_forward(
        self, payload: Dict, fingerprint: str, headers: Dict[str, str], span: Span
    ) -> Tuple[int, Dict, NodeState]:
        """Walk the preference list until a node admits the job.

        Transport failures mark the node dead and spill to the next owner; per-node
        429s spill likewise (the gossip may lag a just-filled queue).  Exhausting the
        list with only 429s is a fleet-level shed.
        """
        candidates = self._candidates(fingerprint)
        if not candidates:
            if not self._alive_nodes():
                raise HTTPError(503, "no alive worker nodes are registered")
            raise self._shed("fleet saturated: no owner is reachable")
        saw_saturation = False
        for node in candidates:
            if node.saturated:
                saw_saturation = True
                continue
            started = time.monotonic()
            try:
                status, _headers, data = await httpclient.fetch_json(
                    node.url, "POST", "/v1/jobs", payload=payload, headers=headers,
                    timeout=30.0,
                )
            except FetchError:
                self._mark_dead(node)
                continue
            if status == 429:
                # Gossip lag: the node filled up since its last heartbeat.
                saw_saturation = True
                node.health["ready"] = False
                continue
            if status >= 400:
                raise _proxied_error(status, data)
            self.metrics.placements.inc(node=node.node_id)
            self.metrics.forward_seconds.observe(time.monotonic() - started)
            span.set("node", node.node_id).set("fingerprint", fingerprint[:12])
            span.finish()
            return status, data, node
        if saw_saturation:
            raise self._shed("fleet saturated: every alive owner is shedding")
        raise HTTPError(503, "no alive worker nodes are registered")

    def _remember(self, placement: Placement) -> None:
        self.placements[placement.client_id] = placement
        while len(self.placements) > PLACEMENT_HISTORY_LIMIT:
            self.placements.popitem(last=False)

    async def _handle_submit(self, request: Request, writer: asyncio.StreamWriter) -> None:
        data = request.json()
        job = job_from_payload(data)  # validates and yields the placement key
        fingerprint = job.fingerprint()
        headers, span = self._forward_context(request)
        status, body, node = await self._place_and_forward(data, fingerprint, headers, span)
        placement = Placement(
            str(body.get("id", "")), node.node_id, fingerprint, data, [span.to_dict()]
        )
        self._remember(placement)
        body["node"] = node.node_id
        await self._write_json(writer, status, body)

    async def _handle_batch(self, request: Request, writer: asyncio.StreamWriter) -> None:
        """Place each batch entry independently and forward per-node sub-batches.

        Unlike a solo server's ``/v1/batch``, admission is atomic only *per node*:
        entries grouped onto different nodes succeed or fail independently, and a
        shed reports which entries were already admitted.
        """
        data = request.json()
        entries = batch_entries(data)
        specs = [spec for spec, _job in entries]
        fingerprints = [job.fingerprint() for _spec, job in entries]
        shared = {key: value for key, value in data.items() if key != "jobs"}
        headers, span = self._forward_context(request)
        summaries: List[Optional[Dict]] = [None] * len(specs)
        admitted = 0
        for index, (spec, fingerprint) in enumerate(zip(specs, fingerprints)):
            # Each entry forwards as an ordinary single-job submission to its own
            # placed node (admission on the node is idempotent by fingerprint).
            payload = dict(shared)
            payload.update(spec)
            sub_span = Span(
                "coordinator.place", trace_id=span.trace_id, parent_id=span.span_id,
                process="coordinator",
            )
            sub_headers = dict(headers)
            sub_headers["traceparent"] = format_traceparent(
                span.trace_id, sub_span.span_id
            )
            try:
                _status, entry, node = await self._place_and_forward(
                    payload, fingerprint, sub_headers, sub_span
                )
            except HTTPError as exc:
                span.finish()
                exc.payload["error"]["admitted"] = admitted
                exc.payload["error"]["failed_index"] = index
                raise
            placement = Placement(
                str(entry.get("id", "")), node.node_id, fingerprint, payload,
                [sub_span.to_dict()],
            )
            self._remember(placement)
            entry["node"] = node.node_id
            summaries[index] = entry
            admitted += 1
        span.finish()
        await self._write_json(writer, 202, {"jobs": summaries})

    # -- proxying -------------------------------------------------------------

    def _placement_or_404(self, job_id: str) -> Placement:
        placement = self.placements.get(job_id)
        if placement is None:
            raise HTTPError(404, f"unknown job id {job_id!r}")
        return placement

    async def _reroute(self, placement: Placement) -> NodeState:
        """The placed node died: resubmit the remembered payload to a surviving owner.

        Correct because jobs are deterministic and content-addressed — the surviving
        owner either has the result cached (peer fetch / replica) or recomputes the
        identical payload.  The placement's remote id is rewired; the client keeps
        polling its original id.
        """
        span = Span(
            "coordinator.reroute",
            trace_id=new_trace_id(),
            process="coordinator",
            attrs={"from_node": placement.node_id},
        )
        headers = {"traceparent": format_traceparent(span.trace_id, span.span_id)}
        status, body, node = await self._place_and_forward(
            placement.payload, placement.fingerprint, headers, span
        )
        placement.node_id = node.node_id
        placement.remote_id = str(body.get("id", ""))
        placement.spans.append(span.to_dict())
        self.metrics.reroutes.inc()
        return node

    async def _proxy_job_get(
        self, placement: Placement, path_suffix: str, raw_query: str, timeout: float
    ) -> Dict:
        """GET against the placement's node, rerouting once if the node is dead."""
        for attempt in range(2):
            node = self.nodes.get(placement.node_id)
            if node is None or not node.alive(time.time(), self.heartbeat_ttl):
                await self._reroute(placement)
                node = self.nodes[placement.node_id]
            path = f"/v1/jobs/{placement.remote_id}{path_suffix}"
            if raw_query:
                path += f"?{raw_query}"
            try:
                status, _headers, data = await httpclient.fetch_json(
                    node.url, "GET", path, timeout=timeout
                )
            except FetchError:
                self._mark_dead(node)
                if attempt == 0:
                    continue
                raise HTTPError(502, f"node {node.node_id} is unreachable")
            if status == 404 and attempt == 0:
                # The node restarted and lost the record — reroute recreates it.
                self._mark_dead(node)
                continue
            if status >= 400:
                raise _proxied_error(status, data)
            return data
        raise HTTPError(502, "job's node is unreachable")  # pragma: no cover

    def _present(self, placement: Placement, data: Dict) -> Dict:
        """Rewrite node-local identifiers into the client's view of the job."""
        if data.get("id") == placement.remote_id:
            data["id"] = placement.client_id
        if "url" in data:
            data["url"] = f"/v1/jobs/{placement.client_id}"
        data["node"] = placement.node_id
        return data

    @staticmethod
    def _proxy_timeout(request: Request) -> float:
        wait = request.query.get("wait")
        try:
            return min(float(wait), 120.0) + 15.0 if wait is not None else 30.0
        except ValueError as exc:
            raise HTTPError(400, f"invalid wait value {wait!r}") from exc

    async def _handle_job_proxy(
        self, request: Request, writer: asyncio.StreamWriter, id: str
    ) -> None:
        placement = self._placement_or_404(id)
        data = await self._proxy_job_get(
            placement, "", request.raw_query, self._proxy_timeout(request)
        )
        await self._write_json(writer, 200, self._present(placement, data))

    async def _handle_trace_proxy(
        self, request: Request, writer: asyncio.StreamWriter, id: str
    ) -> None:
        placement = self._placement_or_404(id)
        data = await self._proxy_job_get(
            placement, "/trace", request.raw_query, self._proxy_timeout(request)
        )
        # Graft the coordinator's placement/reroute spans into the tree the node
        # returns — the client sees one contiguous trace.
        data["spans"] = placement.spans + list(data.get("spans") or [])
        await self._write_json(writer, 200, self._present(placement, data))

    async def _handle_events_proxy(
        self, request: Request, writer: asyncio.StreamWriter, id: str
    ) -> None:
        placement = self._placement_or_404(id)
        node = self.nodes.get(placement.node_id)
        if node is None or not node.alive(time.time(), self.heartbeat_ttl):
            await self._reroute(placement)
            node = self.nodes[placement.node_id]
        try:
            # The node's response (status line, chunked framing, keepalives) passes
            # through verbatim; note the event payloads carry the node-local job id.
            await httpclient.pipe(
                node.url, "GET", f"/v1/jobs/{placement.remote_id}/events", writer
            )
        except FetchError as exc:
            self._mark_dead(node)
            raise HTTPError(502, f"event stream from {node.node_id} failed: {exc}")

    async def _handle_cancel_proxy(
        self, request: Request, writer: asyncio.StreamWriter, id: str
    ) -> None:
        placement = self._placement_or_404(id)
        node = self.nodes.get(placement.node_id)
        if node is None:
            raise HTTPError(409, "job's node departed; the job cannot be cancelled")
        try:
            status, _headers, data = await httpclient.fetch_json(
                node.url, "POST", f"/v1/jobs/{placement.remote_id}/cancel", timeout=15.0
            )
        except FetchError:
            self._mark_dead(node)
            raise HTTPError(502, f"node {node.node_id} is unreachable")
        if status >= 400:
            raise _proxied_error(status, data)
        await self._write_json(writer, status, self._present(placement, data))

    async def _handle_list_jobs(self, request: Request, writer: asyncio.StreamWriter) -> None:
        """Fan ``GET /v1/jobs`` across alive nodes and merge (annotated per node)."""
        nodes = self._alive_nodes()
        results = await asyncio.gather(
            *(
                httpclient.fetch_json(node.url, "GET", "/v1/jobs", timeout=10.0)
                for node in nodes
            ),
            return_exceptions=True,
        )
        jobs: List[Dict] = []
        for node, outcome in zip(nodes, results):
            if isinstance(outcome, BaseException):
                continue
            status, _headers, data = outcome
            if status != 200:
                continue
            for entry in data.get("jobs", []):
                entry["node"] = node.node_id
                jobs.append(entry)
        await self._write_json(writer, 200, {"jobs": jobs, "count": len(jobs)})

    # -- service metadata ------------------------------------------------------

    def health_payload(self) -> Dict:
        alive = self._alive_nodes()
        unsaturated = [node for node in alive if not node.saturated]
        return {
            "status": "draining" if self.draining else "ok",
            "role": "coordinator",
            "ready": bool(unsaturated) and not self.draining,
            "version": __version__,
            "uptime_seconds": time.time() - self.started_at,
            "nodes": len(self.nodes),
            "nodes_alive": len(alive),
            "shedding": bool(alive) and not unsaturated,
            "replicas": self.replicas,
            "queue_depth": sum(int(n.health.get("queue_depth", 0)) for n in alive),
            "in_flight": sum(int(n.health.get("in_flight", 0)) for n in alive),
            "workers": sum(int(n.health.get("workers", 0)) for n in alive),
        }

    async def _handle_healthz(self, request: Request, writer: asyncio.StreamWriter) -> None:
        await self._write_json(writer, 200, self.health_payload())

    async def _handle_methods(self, request: Request, writer: asyncio.StreamWriter) -> None:
        await self._write_json(writer, 200, methods_payload())

    async def _handle_targets(self, request: Request, writer: asyncio.StreamWriter) -> None:
        await self._write_json(writer, 200, targets_payload())


def _proxied_error(status: int, data: Dict) -> HTTPError:
    """Re-raise a node's JSON error as this coordinator's own response."""
    error = data.get("error", {}) if isinstance(data, dict) else {}
    message = error.get("message", f"node answered HTTP {status}")
    extra = {
        key: value
        for key, value in error.items()
        if key not in ("status", "message") and _json_safe(value)
    }
    exc = HTTPError(status, message, **extra)
    if status == 429:
        exc.headers["Retry-After"] = "1"
    return exc


def _json_safe(value) -> bool:
    try:
        json.dumps(value)
        return True
    except (TypeError, ValueError):
        return False
