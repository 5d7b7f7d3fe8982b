"""Observability tests for the online server: trace propagation, timings, metrics.

Covers the ISSUE 6 acceptance path end-to-end: a traced remote submission must yield
ONE merged span tree — client submit → server job → queue wait → worker execution →
every pass instance — exportable as valid Chrome trace-event JSON.  Also the queued/
running seconds surfaced in job payloads and the queue-wait and per-pass histograms.
"""

import json

import pytest

from repro import QuantumCircuit, Target, TranspileOptions, Tracer, use_tracer
from repro.obs import chrome_trace, parse_metric, tracer as tracer_mod
from repro.server import ReproServer


def start_server(**kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("use_processes", False)
    kwargs.setdefault("max_workers", 2)
    return ReproServer(**kwargs).run_in_thread()


@pytest.fixture(scope="module")
def live():
    handle = start_server()
    yield handle
    handle.stop(drain=False, timeout=5)


@pytest.fixture(autouse=True)
def _no_ambient_tracer():
    tracer_mod.set_tracer(None)
    tracer_mod._reset_env_tracer_for_tests()
    yield
    tracer_mod.set_tracer(None)
    tracer_mod._reset_env_tracer_for_tests()


def small_circuit(name: str = "obs3") -> QuantumCircuit:
    circuit = QuantumCircuit(3, name=name)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    return circuit


def linear_target(qubits: int = 5) -> Target:
    return Target.from_topology("linear", qubits)


class TestMergedTraceTree:
    def test_client_to_pass_span_tree(self, live):
        tracer = Tracer(process="client")
        with use_tracer(tracer):
            handle = live.client().submit(
                small_circuit("traced-tree"), linear_target(),
                TranspileOptions(seed=11, level="O1"),
            )
        result = handle.result(timeout=60)
        spans = result.trace
        assert spans, "traced submission must return a merged span tree"

        by_name = {span["name"]: span for span in spans}
        # One trace id across every process tier.
        assert len({span["trace_id"] for span in spans}) == 1
        assert {span["process"] for span in spans} >= {"client", "server", "worker"}
        # Parentage: client.submit -> server.job -> {queue wait, worker transpile}.
        client_span = by_name["client.submit"]
        server_span = by_name["server.job"]
        queue_span = by_name["server.queue_wait"]
        root_span = by_name["transpile"]
        assert client_span["parent_id"] is None
        assert server_span["parent_id"] == client_span["span_id"]
        assert queue_span["parent_id"] == server_span["span_id"]
        assert root_span["parent_id"] == server_span["span_id"]
        # Every executed pass hangs off the worker's transpile root.
        pass_spans = [s for s in spans if s["name"].startswith("pass:")]
        assert pass_spans
        assert all(s["parent_id"] == root_span["span_id"] for s in pass_spans)
        assert [s["name"][len("pass:"):] for s in pass_spans] == [
            name for name, _ in result.pass_timing_log
        ]

        # The merged tree must export as valid Chrome trace-event JSON.
        doc = chrome_trace(spans)
        encoded = json.loads(json.dumps(doc))
        x_events = [e for e in encoded["traceEvents"] if e["ph"] == "X"]
        assert len(x_events) == len(spans)
        assert all(e["dur"] >= 0 for e in x_events)
        pids = {e["pid"] for e in x_events}
        assert len(pids) >= 3  # client / server / worker rows

    def test_trace_endpoint_and_stability(self, live):
        tracer = Tracer(process="client")
        with use_tracer(tracer):
            handle = live.client().submit(
                small_circuit("trace-endpoint"), linear_target(),
                TranspileOptions(seed=12, level="O1"),
            )
        handle.result(timeout=60)
        first = handle.trace()
        second = handle.trace()
        assert first["trace_id"] == second["trace_id"]
        assert first["state"] in ("done", "cached")
        names = {span["name"] for span in first["spans"]}
        assert {"server.job", "server.queue_wait", "transpile"} <= names
        # Span ids are fixed at admission: repeated reads return the same tree.
        assert {s["span_id"] for s in first["spans"]} == {
            s["span_id"] for s in second["spans"]
        }

    def test_untraced_submission_stays_untraced(self, live):
        handle = live.client().submit(
            small_circuit("untraced"), linear_target(),
            TranspileOptions(seed=13, level="O1"),
        )
        result = handle.result(timeout=60)
        assert result.trace == []
        payload = handle.trace()
        names = {span["name"] for span in payload["spans"]}
        assert "transpile" not in names  # no worker tracer ran
        assert "client.submit" not in names

    def test_trace_endpoint_unknown_job(self, live):
        from repro.client import ServerError

        with pytest.raises(ServerError):
            live.client().trace("no-such-job")


class TestQueueTimings:
    def test_job_payload_has_queued_and_running_seconds(self, live):
        handle = live.client().submit(
            small_circuit("timings"), linear_target(),
            TranspileOptions(seed=14, level="O1"),
        )
        handle.result(timeout=60)
        status = handle.status()
        assert status["queued_seconds"] >= 0.0
        assert status["running_seconds"] >= 0.0

    def test_queue_wait_histogram_series(self, live):
        handle = live.client().submit(
            small_circuit("qwait"), linear_target(),
            TranspileOptions(seed=15, level="O1"),
        )
        handle.result(timeout=60)
        text = live.client().metrics_text()
        assert "repro_job_queue_wait_seconds_bucket" in text
        assert parse_metric(text, "repro_job_queue_wait_seconds_count") >= 1
        # Per-pass latency histograms fed from the worker timing log.
        assert "repro_pass_seconds_bucket" in text
        # The obs counter bridge (thread-pool workers share the server process).
        assert "repro_obs_counter" in text
