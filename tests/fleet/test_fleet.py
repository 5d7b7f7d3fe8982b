"""End-to-end fleet tests: a live coordinator plus worker nodes over real sockets.

Everything runs in one process (servers in background event-loop threads, thread
pools for execution), but all traffic crosses real TCP sockets through the real
wire protocol — exactly what `repro fleet coordinator` / `repro fleet worker`
processes would exchange.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro import QuantumCircuit, Target, TranspileOptions, transpile
from repro.circuit import qasm
from repro.client import ReproClient, ServerError
from repro.fleet import FleetCoordinator, FleetWorkerServer
from repro.fleet.ring import HashRing
from repro.obs import parse_metric
from repro.obs.counters import COUNTERS
from repro.obs.tracer import Tracer, use_tracer
from repro.server.http import ThreadedServer

from ..conftest import assert_compact_json_bodies

HEARTBEAT = 0.2


def small_circuit(name: str = "fleet3") -> QuantumCircuit:
    circuit = QuantumCircuit(3, name=name)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.cx(0, 2)
    circuit.cx(1, 2)
    return circuit


def linear_target(qubits: int = 5) -> Target:
    return Target.from_topology("linear", qubits)


def options(seed: int = 0) -> TranspileOptions:
    return TranspileOptions(routing="sabre", seed=seed)


def start_coordinator(**kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("heartbeat_interval", HEARTBEAT)
    return ThreadedServer(FleetCoordinator(**kwargs)).start()

def start_worker(coordinator_url: str, node_id: str, **kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("use_processes", False)
    kwargs.setdefault("max_workers", 2)
    # The 2s production default can expire under full-suite CPU contention, silently
    # degrading a peer-cache hit into a local recompute and flaking the assertions.
    kwargs.setdefault("peer_timeout", 30.0)
    worker = FleetWorkerServer(coordinator_url, node_id=node_id, **kwargs)
    return ThreadedServer(worker).start()


def wait_for(predicate, timeout: float = 10.0, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def wait_for_nodes(client: ReproClient, count: int) -> None:
    assert wait_for(lambda: client.healthz().get("nodes_alive", 0) >= count), (
        f"fleet never reached {count} alive nodes: {client.healthz()}"
    )


def crash(handle: ThreadedServer) -> None:
    """Kill a worker without the graceful deregister+drain path (simulates a crash)."""
    server = handle.server

    async def _die():
        if server._heartbeat_task is not None:
            server._heartbeat_task.cancel()
        # The coordinator must detect this, not be told.
        server.registered = server.register_sent = False
        if server._server is not None:
            server._server.close()

    asyncio.run_coroutine_threadsafe(_die(), handle.loop).result(timeout=5)


@pytest.fixture(scope="module")
def fleet():
    """A coordinator fronting two executing worker nodes."""
    coordinator = start_coordinator()
    workers = [start_worker(coordinator.url, f"node-{i}") for i in range(2)]
    client = ReproClient(coordinator.url, client_id="fleet-tests")
    wait_for_nodes(client, 2)
    # A worker mirrors the membership one heartbeat after the coordinator sees it: the
    # node that registered first holds only itself until then, so wait for every peer
    # ring to hold the other node before a test relies on peer fetch.
    assert wait_for(
        lambda: all(w.server.peer_cache.peers_for("0" * 64) for w in workers)
    ), "worker peer rings never converged"
    yield {"coordinator": coordinator, "workers": workers, "client": client}
    for handle in workers:
        try:
            handle.stop(drain=False, timeout=5)
        except Exception:  # noqa: BLE001 - some tests crash workers on purpose
            pass
    coordinator.stop(timeout=5)


class TestMembership:
    def test_nodes_register_and_gossip_health(self, fleet):
        status, body, _ = _raw(fleet["coordinator"], "GET", "/fleet/v1/nodes")
        assert status == 200
        doc = json.loads(body)
        nodes = {node["id"]: node for node in doc["nodes"]}
        assert {"node-0", "node-1"} <= set(nodes)
        for node in nodes.values():
            assert node["alive"] is True
            assert node["health"]["role"] == "fleet-worker"
            assert "queue_depth" in node["health"]

    def test_coordinator_healthz_is_a_fleet_summary(self, fleet):
        payload = fleet["client"].healthz()
        assert payload["role"] == "coordinator"
        assert payload["ready"] is True
        assert payload["nodes_alive"] >= 2
        assert payload["workers"] >= 2

    def test_worker_healthz_carries_readiness_fields(self, fleet):
        worker = fleet["workers"][0]
        payload = ReproClient(worker.url).healthz()
        assert payload["ready"] is True
        assert payload["shedding"] is False
        assert payload["workers"] == 2
        assert payload["admitted_depth"] == payload["queue_depth"] + payload["in_flight"]

    def test_metadata_served_by_the_coordinator_itself(self, fleet):
        client = fleet["client"]
        methods = client.methods()
        assert any(m["name"] == "nassc" for m in methods["routing_methods"])
        assert any(t["topology"] == "linear" for t in client.targets())


class TestPlacementAndResults:
    def test_fleet_result_is_bit_identical_to_local_transpile(self, fleet):
        circuit, target = small_circuit("identical"), linear_target()
        handle = fleet["client"].submit(circuit, target, options(seed=7))
        remote = handle.result(timeout=120)
        local = transpile(circuit, target, routing="sabre", seed=7)
        assert qasm.dumps(remote.circuit) == qasm.dumps(local.circuit)
        assert handle._summary["node"] in ("node-0", "node-1")

    def test_resubmission_hits_the_affinity_nodes_cache(self, fleet):
        circuit, target = small_circuit("affinity"), linear_target()
        first = fleet["client"].submit(circuit, target, options(seed=11))
        first.result(timeout=120)
        again = fleet["client"].submit(circuit, target, options(seed=11))
        status = again.status()
        assert status["state"] == "done"
        assert status["from_cache"] is True
        assert again._summary["node"] == first._summary["node"]

    def test_placement_follows_the_public_hash_ring(self, fleet):
        """Clients can predict placement from /fleet/v1/nodes + HashRing alone."""
        doc = json.loads(_raw(fleet["coordinator"], "GET", "/fleet/v1/nodes")[1])
        ring = HashRing([node["id"] for node in doc["nodes"]], vnodes=doc["vnodes"])
        for seed in range(20, 24):
            handle = fleet["client"].submit(
                small_circuit("predict"), linear_target(), options(seed=seed)
            )
            assert handle._summary["node"] == ring.owner(handle.fingerprint)

    def test_batch_through_the_coordinator(self, fleet):
        from repro.service.jobs import TranspileJob

        jobs = [
            TranspileJob.from_circuit(
                small_circuit(f"batch{i}"), linear_target(), options(seed=30 + i)
            )
            for i in range(3)
        ]
        handles = fleet["client"].submit_batch(jobs)
        assert len(handles) == 3
        assert all(handle.result(timeout=120).cx_count > 0 for handle in handles)

    def test_events_stream_proxies_to_the_terminal_state(self, fleet):
        handle = fleet["client"].submit(
            small_circuit("events"), linear_target(), options(seed=41)
        )
        states = [event["state"] for event in handle.events()]
        assert states[-1] == "done"

    def test_trace_is_one_tree_through_the_coordinator(self, fleet):
        tracer = Tracer(process="client")
        with use_tracer(tracer):
            handle = fleet["client"].submit(
                small_circuit("traced"), linear_target(), options(seed=43)
            )
            result = handle.result(timeout=120)
        names = {span["name"] for span in result.trace}
        assert "client.submit" in names
        assert "coordinator.place" in names
        assert "server.job" in names
        assert {span["trace_id"] for span in result.trace} == {tracer.trace_id}


class TestPeerCacheTier:
    def test_off_owner_submission_is_served_by_peer_fetch(self, fleet):
        """A node that does not own a cached fingerprint fetches it from the owner
        instead of recomputing."""
        circuit, target = small_circuit("peerfetch"), linear_target()
        handle = fleet["client"].submit(circuit, target, options(seed=51))
        handle.result(timeout=120)
        owner = handle._summary["node"]
        other = next(
            w for w in fleet["workers"] if w.server.node_id != owner
        )
        hits_before = COUNTERS.snapshot().get("cache.peer.hits", 0)
        direct = ReproClient(other.url).submit(circuit, target, options(seed=51))
        status = direct.status()
        assert status["state"] == "done"
        assert status["from_cache"] is True
        assert COUNTERS.snapshot().get("cache.peer.hits", 0) == hits_before + 1
        # The peer endpoint now shows a hit on the owner's metrics page.
        owner_handle = next(
            w for w in fleet["workers"] if w.server.node_id == owner
        )
        text = ReproClient(owner_handle.url).metrics_text()
        assert parse_metric(
            text, "repro_peer_cache_requests_total", {"outcome": "hit"}
        ) >= 1


class TestSubmissionKeys:
    MISPLACED = {"routing": "nassc", "seed": 4, "target": {"topology": "linear", "num_qubits": 5}}

    def test_option_beside_qasm_is_refused_by_the_coordinator(self, fleet):
        body = dict(self.MISPLACED, qasm=qasm.dumps(small_circuit("misplaced")))
        for path, payload in (("/v1/jobs", body), ("/v1/batch", {"jobs": [body]})):
            status, raw, _ = _raw(fleet["coordinator"], "POST", path, json.dumps(payload))
            assert status == 400, path
            message = json.loads(raw)["error"]["message"]
            assert "routing" in message and "seed" in message

    def test_unknown_batch_key_is_refused_before_any_placement(self, fleet):
        placed = dict(fleet["coordinator"].server.placements)
        body = {
            "jobs": [{"qasm": qasm.dumps(small_circuit("batchkey")),
                      "target": {"topology": "linear", "num_qubits": 5}}],
            "routing": "nassc",
        }
        status, raw, _ = _raw(fleet["coordinator"], "POST", "/v1/batch", json.dumps(body))
        assert status == 400
        assert "routing" in json.loads(raw)["error"]["message"]
        assert dict(fleet["coordinator"].server.placements) == placed

    def test_batch_with_priority_and_client_is_admitted(self, fleet):
        """The coordinator merges batch-wide ``priority``/``client`` into each entry it
        forwards, and the nodes admit the merged body."""
        from repro.service.jobs import TranspileJob

        jobs = [
            TranspileJob.from_circuit(
                small_circuit(f"merged{i}"), linear_target(), options(seed=90 + i)
            )
            for i in range(2)
        ]
        handles = fleet["client"].submit_batch(jobs, priority=4)
        assert all(handle.result(timeout=120).cx_count > 0 for handle in handles)


class TestWireFormat:
    def test_every_coordinator_route_answers_one_line_of_compact_json(
        self, fleet, json_bodies
    ):
        coordinator = fleet["coordinator"]
        job_body = json.dumps({
            "qasm": qasm.dumps(small_circuit("wire")),
            "target": {"topology": "linear", "num_qubits": 5},
            "options": {"routing": "sabre", "seed": 95},
        })
        answered = []

        def call(method, path, payload=None):
            status, raw, headers = _raw(coordinator, method, path, payload)
            assert headers["Content-Type"].startswith("application/json")
            answered.append(path)
            return status, json.loads(raw)

        for path in ("/fleet/v1/nodes", "/healthz", "/v1/methods", "/v1/targets"):
            assert call("GET", path)[0] == 200
        status, summary = call("POST", "/v1/jobs", job_body)
        assert status in (200, 202)
        assert call("GET", f"/v1/jobs/{summary['id']}?wait=60")[1]["state"] == "done"
        assert call("POST", "/v1/batch", json.dumps({"jobs": [json.loads(job_body)]}))[0] == 202
        assert call("GET", "/v1/jobs")[0] == 200
        assert call("GET", f"/v1/jobs/{summary['id']}/trace")[0] == 200
        assert call("POST", f"/v1/jobs/{summary['id']}/cancel")[0] == 409
        assert call("POST", "/fleet/v1/heartbeat", json.dumps({"node_id": "nobody"}))[0] in (
            200, 404
        )
        assert call("GET", "/v1/jobs/job-nope")[0] == 404
        assert_compact_json_bodies(json_bodies, at_least=len(answered))


class TestFleetMetrics:
    def test_scrape_has_membership_and_placement_series(self, fleet):
        text = fleet["client"].metrics_text()
        assert parse_metric(text, "repro_fleet_nodes_alive") >= 2
        total_placed = sum(
            parse_metric(text, "repro_fleet_placements_total", {"node": node})
            for node in ("node-0", "node-1")
        )
        assert total_placed >= 1
        assert parse_metric(text, "repro_fleet_node_up", {"node": "node-0"}) in (0, 1)


class TestSheddingAndBackpressure:
    def test_saturated_fleet_sheds_with_429_and_retry_after(self):
        coordinator = start_coordinator()
        worker = start_worker(
            coordinator.url, "frozen-node", concurrency=0, queue_bound=1
        )
        client = ReproClient(coordinator.url, max_retries=0)
        try:
            wait_for_nodes(client, 1)
            client.submit(small_circuit("fill"), linear_target(), options(seed=61))
            with pytest.raises(ServerError) as excinfo:
                client.submit(small_circuit("shed"), linear_target(), options(seed=62))
            assert excinfo.value.status == 429
            # The shed and the node's gossiped saturation both show on the scrape.
            text = client.metrics_text()
            assert parse_metric(text, "repro_fleet_sheds_total") >= 1
            assert wait_for(lambda: client.healthz()["shedding"] is True), (
                "gossip never marked the fleet as shedding"
            )
        finally:
            worker.stop(drain=False, timeout=5)
            coordinator.stop(timeout=5)

    def test_client_retries_ride_out_a_transient_429(self):
        """With retries on (the default), a briefly-full queue is invisible."""
        coordinator = start_coordinator()
        worker = start_worker(coordinator.url, "burst-node", queue_bound=1)
        client = ReproClient(coordinator.url)  # default: retries with backoff
        try:
            wait_for_nodes(client, 1)
            handles = [
                client.submit(small_circuit(f"burst{i}"), linear_target(), options(seed=70 + i))
                for i in range(4)
            ]
            assert all(h.result(timeout=120).cx_count > 0 for h in handles)
        finally:
            worker.stop(drain=False, timeout=5)
            coordinator.stop(timeout=5)


class TestFailover:
    def test_graceful_stop_deregisters_the_node(self):
        coordinator = start_coordinator()
        w0 = start_worker(coordinator.url, "leaver-0")
        w1 = start_worker(coordinator.url, "leaver-1")
        client = ReproClient(coordinator.url)
        try:
            wait_for_nodes(client, 2)
            w1.stop(timeout=10)
            assert wait_for(lambda: client.healthz()["nodes"] == 1), (
                "graceful shutdown must deregister immediately, not wait for the TTL"
            )
        finally:
            w0.stop(drain=False, timeout=5)
            coordinator.stop(timeout=5)

    def test_stop_before_register_reply_still_deregisters(self, monkeypatch):
        """A stop that lands after the coordinator recorded the node, but before the
        worker read the register reply, must still deregister it."""
        from repro.fleet import httpclient

        fetch_json = httpclient.fetch_json

        async def slow_register_reply(base_url, method, path, **kwargs):
            reply = await fetch_json(base_url, method, path, **kwargs)
            if path == "/fleet/v1/register":
                await asyncio.sleep(1.0)
            return reply

        monkeypatch.setattr(httpclient, "fetch_json", slow_register_reply)
        coordinator = start_coordinator()
        worker = start_worker(coordinator.url, "early-leaver")
        client = ReproClient(coordinator.url)
        try:
            assert wait_for(lambda: client.healthz()["nodes"] == 1)
            assert not worker.server.registered  # the reply is still in flight
            worker.stop(timeout=10)
            assert wait_for(lambda: client.healthz()["nodes"] == 0), (
                "a node the coordinator recorded must be deregistered on stop"
            )
        finally:
            coordinator.stop(timeout=5)

    def test_stop_ends_the_membership_loop_when_a_cancel_is_lost(self, monkeypatch):
        """``asyncio.wait_for`` can return a finished reply and drop a cancel landing in
        the same loop iteration; the membership loop must still end once the server
        drains, or ``stop()`` waits on it forever."""
        from repro.fleet import httpclient

        fetch_json = httpclient.fetch_json

        async def cancel_losing_register(base_url, method, path, **kwargs):
            reply = await fetch_json(base_url, method, path, **kwargs)
            if path == "/fleet/v1/register":
                try:
                    await asyncio.sleep(1.0)
                except asyncio.CancelledError:
                    pass  # the cancel is lost and the reply returned, as in wait_for
            return reply

        monkeypatch.setattr(httpclient, "fetch_json", cancel_losing_register)
        coordinator = start_coordinator()
        worker = start_worker(coordinator.url, "lost-cancel")
        client = ReproClient(coordinator.url)
        try:
            assert wait_for(lambda: client.healthz()["nodes"] == 1)
            assert not worker.server.registered  # the register reply is still held
            worker.stop(timeout=1)  # a surviving loop makes this raise TimeoutError
            assert wait_for(lambda: client.healthz()["nodes"] == 0)
        finally:
            coordinator.stop(timeout=5)

    def test_failed_deregister_is_counted_and_warned(self, capsys):
        coordinator = start_coordinator()
        worker = start_worker(coordinator.url, "orphan-0")
        try:
            wait_for_nodes(ReproClient(coordinator.url), 1)
            assert wait_for(lambda: worker.server.registered)
        finally:
            coordinator.stop(timeout=5)
        before = COUNTERS.get("fleet.deregister_errors")
        worker.stop(timeout=10)
        assert COUNTERS.get("fleet.deregister_errors") == before + 1
        err = capsys.readouterr().err
        assert "orphan-0 failed to deregister" in err
        assert coordinator.url in err

    def test_dead_node_job_reroutes_without_client_visible_failure(self):
        coordinator = start_coordinator()
        w0 = start_worker(coordinator.url, "victim-0")
        w1 = start_worker(coordinator.url, "victim-1")
        client = ReproClient(coordinator.url, client_id="failover")
        try:
            wait_for_nodes(client, 2)
            circuit, target = small_circuit("failover"), linear_target()
            handle = client.submit(circuit, target, options(seed=81))
            handle.result(timeout=120)
            victim_id = handle._summary["node"]
            victim = w0 if w0.server.node_id == victim_id else w1
            crash(victim)
            # The same client keeps polling the same job id; the coordinator reroutes
            # to the survivor and the result is still the deterministic compile.
            status = client.job(handle.id, wait=60)
            assert status["state"] == "done"
            assert status["id"] == handle.id
            assert status["node"] != victim_id
            local = transpile(circuit, target, routing="sabre", seed=81)
            remote = handle.result(timeout=120)
            assert qasm.dumps(remote.circuit) == qasm.dumps(local.circuit)
            text = client.metrics_text()
            assert parse_metric(text, "repro_fleet_reroutes_total") >= 1
        finally:
            for handle_ in (w0, w1):
                try:
                    handle_.stop(drain=False, timeout=5)
                except Exception:  # noqa: BLE001 - the victim's loop may be dead
                    pass
            coordinator.stop(timeout=5)


def _raw(handle: ThreadedServer, method: str, path: str, body=None):
    import http.client

    connection = http.client.HTTPConnection("127.0.0.1", handle.server.port, timeout=30)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, response.read(), dict(response.getheaders())
    finally:
        connection.close()
