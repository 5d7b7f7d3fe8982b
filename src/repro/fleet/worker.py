"""A fleet worker node: a :class:`~repro.server.app.ReproServer` with membership.

The worker is a full solo server (same routes, queue, runner, metrics) plus three
fleet behaviours:

* its result cache is a :class:`~repro.fleet.peercache.PeerCacheTier`, so a local miss
  consults the fingerprint's ring owners before recomputing;
* a background task registers with the coordinator once the listener is bound (the
  advertised URL needs the real port) and then heartbeats on the coordinator's cadence,
  shipping the node's ``/healthz`` readiness document as capacity gossip and absorbing
  the membership map from each response into the peer cache's ring;
* graceful shutdown deregisters first (the coordinator stops placing new work here and
  reroutes on demand) and only then drains the local queue, so in-flight jobs finish
  and publish into the cache tier before the process exits.

A worker keeps serving requests if the coordinator is down — heartbeats just retry,
and ``known: false`` responses (a restarted coordinator) trigger re-registration.
"""

from __future__ import annotations

import asyncio
import os
import sys
from typing import Optional

from ..obs.counters import COUNTERS
from ..server.app import ReproServer
from . import httpclient
from .httpclient import FetchError
from .peercache import PeerCacheTier


def _default_node_id() -> str:
    return f"node-{os.urandom(4).hex()}"


class FleetWorkerServer(ReproServer):
    """One fleet node (see module docstring).  ``**server_kwargs`` pass through to
    :class:`ReproServer` (workers, queue bound, concurrency, …)."""

    def __init__(
        self,
        coordinator_url: str,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        node_id: Optional[str] = None,
        advertise_host: Optional[str] = None,
        peer_replicas: int = 2,
        peer_timeout: Optional[float] = None,
        cache_dir: Optional[str] = None,
        **server_kwargs,
    ) -> None:
        peer_kwargs = {} if peer_timeout is None else {"timeout": peer_timeout}
        self.peer_cache = PeerCacheTier(
            directory=cache_dir, replicas=peer_replicas, **peer_kwargs
        )
        super().__init__(host, port, cache=self.peer_cache, **server_kwargs)
        self.coordinator_url = coordinator_url.rstrip("/")
        self.node_id = node_id or _default_node_id()
        self.advertise_host = advertise_host or host
        self.heartbeat_interval = 2.0  # replaced by the coordinator's cadence on register
        self.registered = False
        #: A register request went out: the coordinator may list this node even though
        #: its reply has not been read yet, so shutdown must deregister.
        self.register_sent = False
        self._heartbeat_task: Optional[asyncio.Task] = None

    @property
    def advertise_url(self) -> str:
        """The URL peers and the coordinator reach this node at (needs the bound port)."""
        return f"http://{self.advertise_host}:{self.port}"

    # -- lifecycle ------------------------------------------------------------

    async def _on_start(self) -> None:
        await super()._on_start()
        self._heartbeat_task = asyncio.get_running_loop().create_task(
            self._membership_loop(), name=f"fleet-heartbeat-{self.node_id}"
        )

    async def _on_stop(self, *, drain: bool, timeout: float) -> None:
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except asyncio.CancelledError:
                pass
            self._heartbeat_task = None
        await self._deregister()
        # Drain AFTER deregistering: the ring has already remapped this node's share,
        # so the queue empties into the cache tier with no new placements arriving.
        await super()._on_stop(drain=drain, timeout=timeout)

    # -- membership -----------------------------------------------------------

    def _membership_doc(self) -> dict:
        return {
            "node_id": self.node_id,
            "url": self.advertise_url,
            "health": self.health_payload(),
        }

    def _absorb(self, response: dict) -> None:
        """Fold a register/heartbeat response's membership map into the peer ring."""
        nodes = response.get("nodes")
        if isinstance(nodes, dict) and nodes:
            self.peer_cache.update_topology(
                {str(k): str(v) for k, v in nodes.items()},
                self_node=self.node_id,
                replicas=response.get("replicas"),
            )
        interval = response.get("heartbeat_interval")
        if isinstance(interval, (int, float)) and interval > 0:
            self.heartbeat_interval = float(interval)

    async def _register(self) -> bool:
        self.register_sent = True
        try:
            status, _headers, data = await httpclient.fetch_json(
                self.coordinator_url, "POST", "/fleet/v1/register",
                payload=self._membership_doc(), timeout=10.0,
            )
        except FetchError:
            return False
        if status != 200:
            return False
        self._absorb(data)
        self.registered = True
        return True

    async def _heartbeat(self) -> None:
        try:
            status, _headers, data = await httpclient.fetch_json(
                self.coordinator_url, "POST", "/fleet/v1/heartbeat",
                payload=self._membership_doc(), timeout=10.0,
            )
        except FetchError:
            return  # coordinator unreachable — keep serving, retry next tick
        if status == 200 and not data.get("known", False):
            self.registered = False  # coordinator restarted; re-register next tick
            return
        if status == 200:
            self._absorb(data)

    async def _membership_loop(self) -> None:
        # Ends once the server drains, not only on cancel: ``asyncio.wait_for`` (inside
        # ``httpclient.fetch``) can return a finished reply and drop a cancel that
        # lands in the same loop iteration, and ``_on_stop`` then waits on this task.
        while not self.draining:
            if not self.registered:
                await self._register()
            else:
                await self._heartbeat()
            await asyncio.sleep(self.heartbeat_interval)

    async def _deregister(self) -> None:
        if not self.register_sent:
            return
        self.registered = self.register_sent = False
        try:
            status, _headers, _data = await httpclient.fetch_json(
                self.coordinator_url, "POST", "/fleet/v1/deregister",
                payload={"node_id": self.node_id}, timeout=5.0,
            )
            error = None if status == 200 else f"HTTP {status}"
        except FetchError as exc:
            error = str(exc)
        if error is not None:
            # The coordinator evicts this node only once its heartbeat goes stale.
            COUNTERS.inc("fleet.deregister_errors")
            print(
                f"warning: node {self.node_id} failed to deregister from "
                f"{self.coordinator_url} ({error}); the coordinator keeps it until "
                f"its heartbeat TTL expires",
                file=sys.stderr,
            )

    # -- identity in health/metrics -------------------------------------------

    def health_payload(self) -> dict:
        payload = super().health_payload()
        payload["node_id"] = self.node_id
        payload["role"] = "fleet-worker"
        payload["coordinator"] = self.coordinator_url
        return payload
