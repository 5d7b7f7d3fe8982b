"""End-to-end tests of the online transpilation server over a real socket.

A :class:`ReproServer` runs on an ephemeral port inside a background event-loop thread;
tests talk to it through :class:`repro.client.ReproClient` and raw ``http.client``
requests exactly as external callers would.
"""

import http.client
import json

import pytest

from repro import (
    QuantumCircuit,
    ResultCache,
    Target,
    TranspileJob,
    TranspileOptions,
    transpile,
)
from repro.circuit import qasm
from repro.client import JobFailed, ServerError
from repro.obs import parse_metric
from repro.server import ReproServer
from repro.service import BatchTranspiler

from ..conftest import assert_compact_json_bodies


def start_server(**kwargs):
    """Boot a server in a background thread (the shared ThreadedServer harness)."""
    kwargs.setdefault("port", 0)
    kwargs.setdefault("use_processes", False)  # threads: no fork cost in tests
    kwargs.setdefault("max_workers", 2)
    return ReproServer(**kwargs).run_in_thread()


@pytest.fixture(scope="module")
def live():
    """A server that actually executes jobs (thread pool, 2 workers)."""
    handle = start_server()
    yield handle
    handle.stop(drain=False, timeout=5)


@pytest.fixture()
def frozen():
    """A server whose runner never starts jobs — submissions stay QUEUED forever."""
    handle = start_server(concurrency=0, queue_bound=2)
    yield handle
    handle.stop(drain=False, timeout=5)


def small_circuit(name: str = "bell3") -> QuantumCircuit:
    circuit = QuantumCircuit(3, name=name)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.cx(0, 2)
    circuit.cx(1, 2)
    return circuit


def linear_target(qubits: int = 5) -> Target:
    return Target.from_topology("linear", qubits)


def raw_request(handle, method, path, body=None, headers=None):
    connection = http.client.HTTPConnection("127.0.0.1", handle.server.port, timeout=30)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return response.status, response.read(), dict(response.getheaders())
    finally:
        connection.close()


class TestHealthAndMetadata:
    def test_healthz(self, live):
        payload = live.client().healthz()
        assert payload["status"] == "ok"
        assert payload["pool"] == "thread"
        assert payload["queue_bound"] == 256

    def test_methods_lists_registry(self, live):
        methods = live.client().methods()
        names = [method["name"] for method in methods["routing_methods"]]
        assert {"none", "sabre", "nassc"} <= set(names)
        levels = [level["name"] for level in methods["optimization_levels"]]
        assert levels == ["O0", "O1", "O2", "O3"]

    def test_targets_catalog(self, live):
        topologies = {target["topology"] for target in live.client().targets()}
        assert {"montreal", "linear", "grid", "full"} <= topologies

    def test_unknown_route_404(self, live):
        status, body, _ = raw_request(live, "GET", "/v1/nonsense")
        assert status == 404
        assert json.loads(body)["error"]["status"] == 404

    def test_wrong_method_405_with_allow(self, live):
        status, _, headers = raw_request(live, "PUT", "/v1/jobs")
        assert status == 405
        assert "GET" in headers.get("Allow", "") and "POST" in headers.get("Allow", "")


class TestSubmitPollResult:
    def test_end_to_end_matches_local_transpile(self, live):
        circuit = small_circuit()
        target = linear_target()
        options = TranspileOptions(routing="sabre", seed=3)
        client = live.client(client_id="e2e")
        handle = client.submit(circuit, target, options, name="bell3")
        remote = handle.result(timeout=120)
        local = transpile(circuit, target, options)
        assert qasm.dumps(remote.circuit) == qasm.dumps(local.circuit)
        assert remote.cx_count == local.cx_count
        assert remote.num_swaps == local.num_swaps

    def test_client_fingerprint_matches_local_job(self, live):
        circuit = small_circuit()
        target = linear_target()
        options = TranspileOptions(routing="nassc", seed=1)
        handle = live.client().submit(circuit, target, options)
        local = TranspileJob.from_circuit(circuit, target, options)
        assert handle.fingerprint == local.fingerprint()
        status = handle.status()
        assert status["fingerprint"] == local.fingerprint()

    def test_qasm_payload_submission(self, live):
        """Submission via raw QASM + target/options JSON (no client-side objects)."""
        payload = {
            "qasm": qasm.dumps(small_circuit()),
            "target": {"topology": "linear", "num_qubits": 5},
            "options": {"routing": "sabre", "seed": 7},
            "name": "raw-json",
        }
        status, body, _ = raw_request(
            live, "POST", "/v1/jobs", body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        assert status in (200, 202)
        job_id = json.loads(body)["id"]
        final = live.client().job(job_id, wait=60)
        assert final["state"] == "done"
        assert final["result"]["metrics"]["cx_count"] > 0

    def test_long_poll_wait_returns_terminal_state(self, live):
        handle = live.client().submit(
            small_circuit("waiter"), linear_target(), TranspileOptions(routing="sabre", seed=11)
        )
        status = live.client().job(handle.id, wait=60)
        assert status["state"] == "done"

    def test_job_listing_contains_submissions(self, live):
        client = live.client()
        handle = client.submit(
            small_circuit("lister"), linear_target(), TranspileOptions(routing="sabre", seed=13)
        )
        handle.result(timeout=120)
        assert handle.id in {entry["id"] for entry in client.jobs()}


class TestCacheFastPath:
    def test_resubmission_is_served_from_cache(self, live):
        circuit = small_circuit("cached")
        target = linear_target()
        options = TranspileOptions(routing="sabre", seed=21)
        client = live.client()
        first = client.submit(circuit, target, options)
        first_result = first.result(timeout=120)

        before = parse_metric(client.metrics_text(), "repro_cache_hits")
        second = client.submit(circuit, target, options)
        status = second.status()
        assert status["state"] == "done"
        assert status["from_cache"] is True
        assert second.id != first.id
        assert qasm.dumps(second.result(timeout=10).circuit) == qasm.dumps(first_result.circuit)

        text = client.metrics_text()
        assert parse_metric(text, "repro_cache_hits") > before
        assert parse_metric(text, "repro_cache_hit_rate") > 0.0
        assert parse_metric(text, "repro_jobs_finished_total", {"outcome": "cached"}) >= 1

    def test_server_serves_results_prewarmed_by_batch_cli(self, tmp_path):
        """The server and the offline batch path share one on-disk cache."""
        circuit = small_circuit("prewarmed")
        target = linear_target()
        options = TranspileOptions(routing="sabre", seed=33)
        job = TranspileJob.from_circuit(circuit, target, options, name="prewarmed")
        cache_dir = str(tmp_path / "shared-cache")
        offline = BatchTranspiler(max_workers=1, cache=ResultCache(directory=cache_dir))
        offline_result = offline.run_one(job).unwrap()

        handle = start_server(cache=ResultCache(directory=cache_dir))
        try:
            remote = handle.client().submit(circuit, target, options)
            status = remote.status()
            assert status["state"] == "done"
            assert status["from_cache"] is True
            assert qasm.dumps(remote.result(timeout=10).circuit) == qasm.dumps(
                offline_result.circuit
            )
        finally:
            handle.stop(drain=False, timeout=5)


class TestBackpressureAndCancellation:
    def test_admission_control_returns_429(self, frozen):
        client = frozen.client()
        target = linear_target()
        for seed in range(2):  # queue_bound=2
            client.submit(small_circuit(), target, TranspileOptions(routing="sabre", seed=seed))
        with pytest.raises(ServerError) as excinfo:
            client.submit(small_circuit(), target, TranspileOptions(routing="sabre", seed=99))
        assert excinfo.value.status == 429

    def test_429_carries_retry_after(self, frozen):
        client = frozen.client()
        target = linear_target()
        handles = [
            client.submit(small_circuit(), target, TranspileOptions(routing="sabre", seed=seed))
            for seed in range(2)
        ]
        assert handles
        payload = TranspileJob.from_circuit(
            small_circuit(), target, TranspileOptions(routing="sabre", seed=98)
        ).to_dict()
        status, body, headers = raw_request(
            frozen, "POST", "/v1/jobs", body=json.dumps(payload),
        )
        assert status == 429
        assert headers.get("Retry-After") == "1"
        assert json.loads(body)["error"]["queue_bound"] == 2

    def test_duplicates_and_429s_are_counted(self, frozen):
        """A duplicate moves repro_jobs_deduplicated_total by one and a 429 moves
        repro_jobs_rejected_total by the queue slots it asked for, job or batch."""
        client = frozen.client(max_retries=0)
        target = linear_target()
        jobs = [
            TranspileJob.from_circuit(
                small_circuit(), target, TranspileOptions(routing="sabre", seed=seed + 90)
            )
            for seed in range(5)
        ]

        def counters():
            text = client.metrics_text()
            return (
                parse_metric(text, "repro_jobs_deduplicated_total"),
                parse_metric(text, "repro_jobs_rejected_total"),
            )

        client.submit_job(jobs[0])
        deduplicated, rejected = counters()
        client.submit_job(jobs[0])
        assert counters() == (deduplicated + 1, rejected)
        client.submit_batch(jobs[:1])
        assert counters() == (deduplicated + 2, rejected)
        client.submit_job(jobs[1])  # the queue bound is 2: the queue is now full
        with pytest.raises(ServerError) as excinfo:
            client.submit_job(jobs[2])
        assert excinfo.value.status == 429
        assert counters() == (deduplicated + 2, rejected + 1)
        with pytest.raises(ServerError) as excinfo:
            client.submit_batch(jobs[2:])
        assert excinfo.value.status == 429
        assert counters() == (deduplicated + 2, rejected + 4)

    def test_cancel_queued_job(self, frozen):
        client = frozen.client()
        handle = client.submit(
            small_circuit(), linear_target(), TranspileOptions(routing="sabre", seed=41)
        )
        assert handle.cancel() is True
        status = handle.status()
        assert status["state"] == "cancelled"
        states = [event["state"] for event in client.events(handle.id)]
        assert states == ["queued", "cancelled"]

    def test_cancel_finished_job_returns_conflict(self, live):
        client = live.client()
        handle = client.submit(
            small_circuit("done-cancel"), linear_target(),
            TranspileOptions(routing="sabre", seed=45),
        )
        handle.result(timeout=120)
        assert handle.cancel() is False  # 409 under the hood
        status, body, _ = raw_request(live, "POST", f"/v1/jobs/{handle.id}/cancel")
        assert status == 409
        assert json.loads(body)["error"]["state"] == "done"

    def test_cancelled_slot_is_freed_for_admission(self, frozen):
        client = frozen.client()
        target = linear_target()
        first = client.submit(small_circuit(), target, TranspileOptions(routing="sabre", seed=51))
        client.submit(small_circuit(), target, TranspileOptions(routing="sabre", seed=52))
        first.cancel()
        replacement = client.submit(
            small_circuit(), target, TranspileOptions(routing="sabre", seed=53)
        )
        assert replacement.status()["state"] == "queued"


class TestErrorHandling:
    def test_malformed_json_400(self, live):
        status, body, _ = raw_request(live, "POST", "/v1/jobs", body=b"{not json")
        assert status == 400
        assert "malformed JSON" in json.loads(body)["error"]["message"]

    def test_missing_fields_400(self, live):
        status, body, _ = raw_request(live, "POST", "/v1/jobs", body=json.dumps({"foo": 1}))
        assert status == 400

    def test_unknown_routing_400(self, live):
        payload = {"qasm": qasm.dumps(small_circuit()), "options": {"routing": "teleport"}}
        status, body, _ = raw_request(live, "POST", "/v1/jobs", body=json.dumps(payload))
        assert status == 400
        assert "teleport" in json.loads(body)["error"]["message"]

    @pytest.mark.parametrize(
        "field,spec,unknown",
        [
            ("options", {"routng": "nassc", "sed": 4}, "routng"),
            ("target", {"topology": "linear", "num_qubits": 5, "calibrate": True}, "calibrate"),
            ("target", dict(Target.from_topology("linear", 5).to_dict(), calibrate=True),
             "calibrate"),
        ],
        ids=["options", "target-shorthand", "target-dict"],
    )
    def test_unknown_spec_key_400(self, live, field, spec, unknown):
        """A misspelt knob is refused by name, never compiled with its default."""
        payload = {"qasm": qasm.dumps(small_circuit()), field: spec}
        status, body, _ = raw_request(live, "POST", "/v1/jobs", body=json.dumps(payload))
        assert status == 400
        assert unknown in json.loads(body)["error"]["message"]

    def test_job_envelope_400(self, live):
        """A ``{"job": {...}}`` envelope is refused, not run as a default job."""
        job = TranspileJob.from_circuit(
            small_circuit(), linear_target(), TranspileOptions(routing="nassc", seed=5)
        )
        status, _, _ = raw_request(
            live, "POST", "/v1/jobs", body=json.dumps({"job": job.to_dict()})
        )
        assert status == 400

    #: An option sent beside ``qasm`` instead of under ``options``.
    MISPLACED = {"routing": "nassc", "seed": 4, "target": {"topology": "linear", "num_qubits": 5}}

    @pytest.mark.parametrize(
        "path,wrap",
        [("/v1/jobs", lambda body: body), ("/v1/batch", lambda body: {"jobs": [body]})],
        ids=["job", "batch-entry"],
    )
    def test_option_beside_qasm_400(self, live, path, wrap):
        """``routing``/``seed`` beside ``qasm`` are refused by name, never compiled as a
        default SABRE job."""
        body = dict(self.MISPLACED, qasm=qasm.dumps(small_circuit()))
        status, raw, _ = raw_request(live, "POST", path, body=json.dumps(wrap(body)))
        assert status == 400
        message = json.loads(raw)["error"]["message"]
        assert "routing" in message and "seed" in message
        if path == "/v1/batch":
            assert message.startswith("jobs[0]: ")

    def test_unknown_batch_key_400(self, live):
        body = {"jobs": [{"qasm": qasm.dumps(small_circuit())}], "routing": "nassc"}
        status, raw, _ = raw_request(live, "POST", "/v1/batch", body=json.dumps(body))
        assert status == 400
        assert "routing" in json.loads(raw)["error"]["message"]

    def test_client_bodies_are_admitted(self, live):
        """What ``submit_job`` and ``submit_batch`` send (with ``client`` and
        ``priority``) stays inside the accepted keys."""
        client = live.client(client_id="alice")
        target = linear_target()
        job = TranspileJob.from_circuit(
            small_circuit("admitted"), target, TranspileOptions(routing="sabre", seed=71)
        )
        assert client.submit_job(job, priority=3).result(timeout=60).cx_count > 0
        batch = [
            TranspileJob.from_circuit(
                small_circuit(f"admitted{i}"), target, TranspileOptions(routing="sabre", seed=i)
            )
            for i in range(72, 74)
        ]
        handles = client.submit_batch(batch, priority=2)
        assert [handle.result(timeout=60).cx_count > 0 for handle in handles] == [True, True]

    def test_submit_rejects_bare_coupling_map(self, live):
        from repro import linear_coupling_map
        from repro.exceptions import TranspilerError

        with pytest.raises(TranspilerError, match=r"Target\(coupling_map=\.\.\.\)"):
            live.client().submit(small_circuit(), linear_coupling_map(5))

    def test_unknown_job_404(self, live):
        with pytest.raises(ServerError) as excinfo:
            live.client().job("job-doesnotexist")
        assert excinfo.value.status == 404

    def test_failed_job_carries_worker_traceback(self, live):
        # 6-qubit circuit on a 5-qubit device: fails inside the worker, not at admission.
        wide = QuantumCircuit(6, name="too-wide")
        wide.h(0)
        for qubit in range(5):
            wide.cx(qubit, qubit + 1)
        handle = live.client().submit(
            wide, linear_target(5), TranspileOptions(routing="sabre")
        )
        with pytest.raises(JobFailed) as excinfo:
            handle.result(timeout=120)
        assert excinfo.value.traceback, "worker traceback must propagate to the client"
        assert "Traceback (most recent call last)" in excinfo.value.traceback
        status = handle.status()
        assert status["state"] == "failed"
        assert status["error"]["traceback"]


class TestBatchAndEvents:
    def test_batch_submission_round_trip(self, live):
        target = linear_target()
        jobs = [
            TranspileJob.from_circuit(
                small_circuit(f"batch{seed}"), target,
                TranspileOptions(routing="sabre", seed=seed + 60),
            )
            for seed in range(3)
        ]
        handles = live.client().submit_batch(jobs)
        assert len(handles) == 3
        results = [handle.result(timeout=120) for handle in handles]
        assert all(result.cx_count > 0 for result in results)
        assert {handle.fingerprint for handle in handles} == {job.fingerprint() for job in jobs}

    def test_batch_rejected_atomically_when_over_bound(self, frozen):
        target = linear_target()
        jobs = [
            TranspileJob.from_circuit(
                small_circuit(), target, TranspileOptions(routing="sabre", seed=seed + 70)
            )
            for seed in range(3)  # bound is 2
        ]
        with pytest.raises(ServerError) as excinfo:
            frozen.client().submit_batch(jobs)
        assert excinfo.value.status == 429
        assert frozen.server.queue.pending_count() == 0  # nothing partially admitted

    def test_batch_dedupe_does_not_consume_headroom(self, frozen):
        """Resubmitting a full queue's worth of jobs coalesces instead of 429ing."""
        target = linear_target()
        jobs = [
            TranspileJob.from_circuit(
                small_circuit(), target, TranspileOptions(routing="sabre", seed=seed + 80)
            )
            for seed in range(2)  # exactly the bound
        ]
        client = frozen.client()
        first = client.submit_batch(jobs)
        assert all(not handle.resubmitted for handle in first)
        again = client.submit_batch(jobs)  # queue is full, but nothing new is needed
        assert all(handle.resubmitted for handle in again)
        assert {handle.id for handle in again} == {handle.id for handle in first}

    def test_event_stream_has_timing_breakdown(self, live):
        handle = live.client().submit(
            small_circuit("events"), linear_target(), TranspileOptions(routing="sabre", seed=81)
        )
        events = list(handle.events())
        states = [event["state"] for event in events]
        assert states[0] == "queued"
        assert states[-1] == "done"
        done = events[-1]["detail"]
        assert done["pass_timing_log"], "terminal event must carry the pass-timing breakdown"
        assert done["cx_count"] > 0
        running = [event for event in events if event["state"] == "running"]
        assert running and running[0]["detail"]["queue_wait_seconds"] >= 0


class TestCliIntegration:
    def test_repro_submit_against_live_server(self, live, tmp_path, capsys):
        from repro.service.cli import main

        source = tmp_path / "circ.qasm"
        source.write_text(qasm.dumps(small_circuit()))
        out_path = tmp_path / "routed.qasm"
        metrics_path = tmp_path / "metrics.json"
        rc = main([
            "submit", str(source), "--url", live.url,
            "--device", "linear", "--num-qubits", "5",
            "--routing", "sabre", "--seed", "17",
            "--out", str(out_path), "--metrics", str(metrics_path),
        ])
        assert rc == 0
        assert "OPENQASM 2.0" in out_path.read_text()
        metrics = json.loads(metrics_path.read_text())
        assert metrics["cx_count"] > 0
        assert metrics["fingerprint"]

    def test_repro_submit_unreachable_server_fails_cleanly(self, tmp_path, capsys):
        from repro.service.cli import main

        source = tmp_path / "circ.qasm"
        source.write_text(qasm.dumps(small_circuit()))
        rc = main([
            "submit", str(source), "--url", "http://127.0.0.1:1",
            "--device", "linear", "--num-qubits", "5",
        ])
        assert rc == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_serve_subcommand_boots_and_answers(self, tmp_path):
        """`python -m repro serve` as a real subprocess: boot, /healthz, SIGTERM drain."""
        import os
        import re
        import signal
        import subprocess
        import sys
        import time
        import urllib.request

        env = dict(os.environ)
        src_dir = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--threads",
             "--workers", "1"],
            stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            banner = process.stderr.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
            assert match, f"no listen banner in {banner!r}"
            port = int(match.group(1))
            deadline = time.time() + 10
            payload = None
            while time.time() < deadline:
                try:
                    with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/healthz", timeout=5
                    ) as response:
                        payload = json.loads(response.read())
                    break
                except OSError:
                    time.sleep(0.1)
            assert payload is not None and payload["status"] == "ok"
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=15) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)


class TestGracefulShutdown:
    def test_drain_finishes_inflight_jobs(self):
        handle = start_server(max_workers=1, concurrency=1)
        client = handle.client()
        submitted = client.submit(
            small_circuit("drain"), linear_target(), TranspileOptions(routing="sabre", seed=91)
        )
        handle.stop(drain=True, timeout=60)
        record = handle.server.queue.get(submitted.id)
        # Drained to done — or, if shutdown won the race before the pop, settled as a
        # ServerShutdown failure (never left dangling in "queued").
        assert record is not None and record.state in ("done", "failed")

    def test_draining_server_rejects_new_jobs_with_503(self, frozen):
        frozen.server.draining = True
        try:
            with pytest.raises(ServerError) as excinfo:
                frozen.client().submit(
                    small_circuit(), linear_target(), TranspileOptions(routing="sabre", seed=95)
                )
            assert excinfo.value.status == 503
        finally:
            frozen.server.draining = False


class TestScheduleSurface:
    def test_methods_advertise_schedule_modes(self, live):
        methods = live.client().methods()
        modes = [mode["name"] for mode in methods["schedule_modes"]]
        assert modes == ["asap", "alap"]
        assert all(mode["description"] for mode in methods["schedule_modes"])

    def test_scheduled_job_returns_schedule_and_metric(self, live):
        target = Target.from_topology("linear", 5, calibrated=True)
        options = TranspileOptions(routing="sabre", seed=33, schedule="asap")
        client = live.client()
        handle = client.submit(small_circuit("timed"), target, options, name="timed")
        remote = handle.result(timeout=120)
        assert remote.schedule is not None
        assert remote.schedule.mode == "asap"
        assert remote.schedule.duration > 0
        remote.schedule.validate()
        status = handle.status()
        assert status["result"]["schedule"]["unit"] == "ns"
        text = client.metrics_text()
        assert parse_metric(
            text, "repro_schedule_duration_seconds_count"
        ) >= 1

    def test_schedule_via_raw_json_spec(self, live):
        payload = {
            "qasm": qasm.dumps(small_circuit("raw-timed")),
            "target": {"topology": "linear", "num_qubits": 5, "calibrated": True},
            "options": {"routing": "sabre", "seed": 7, "schedule": "alap", "route_cost": "ns"},
            "name": "raw-timed",
        }
        status, body, _ = raw_request(
            live, "POST", "/v1/jobs", body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        assert status in (200, 202)
        job_id = json.loads(body)["id"]
        final = live.client().job(job_id, wait=60)
        assert final["state"] == "done"
        schedule = final["result"]["schedule"]
        assert schedule["mode"] == "alap" and schedule["duration"] > 0

    def test_unscheduled_job_has_no_schedule_key(self, live):
        handle = live.client().submit(
            small_circuit("untimed"), linear_target(), TranspileOptions(routing="sabre", seed=3)
        )
        handle.result(timeout=120)
        assert "schedule" not in handle.status()["result"]


class TestWireFormat:
    def test_every_route_answers_one_line_of_compact_json(self, live, frozen, json_bodies):
        """Each JSON body decodes to what the old ``indent=2`` encoding decodes to."""
        target = Target.from_topology("linear", 5, calibrated=True)
        job = TranspileJob.from_circuit(
            small_circuit("wire"), target,
            TranspileOptions(routing="sabre", seed=81, schedule="asap"),
        )
        body = json.dumps(job.to_dict())
        answered = []

        def call(handle, method, path, payload=None):
            status, raw, headers = raw_request(handle, method, path, body=payload)
            assert headers["Content-Type"].startswith("application/json")
            answered.append(path)
            return status, json.loads(raw)

        for path in ("/healthz", "/v1/methods", "/v1/targets"):
            assert call(live, "GET", path)[0] == 200
        status, summary = call(live, "POST", "/v1/jobs", body)
        assert status in (200, 202)
        status, done = call(live, "GET", f"/v1/jobs/{summary['id']}?wait=60")
        assert done["state"] == "done" and done["result"]["schedule"]["instructions"]
        assert call(live, "POST", "/v1/jobs", body)[1]["from_cache"] is True
        assert call(live, "POST", "/v1/batch", json.dumps({"jobs": [job.to_dict()]}))[0] == 202
        assert call(live, "GET", "/v1/jobs")[0] == 200
        assert call(live, "GET", f"/v1/jobs/{summary['id']}/trace")[0] == 200
        assert call(live, "POST", f"/v1/jobs/{summary['id']}/cancel")[0] == 409
        assert call(live, "GET", f"/v1/cache/{summary['fingerprint']}")[0] == 200
        assert call(live, "GET", "/v1/cache/" + "0" * 64)[0] == 404
        assert call(live, "GET", "/v1/nope")[0] == 404
        assert call(live, "POST", "/v1/jobs", "{not json")[0] == 400
        queued = call(frozen, "POST", "/v1/jobs", body)[1]
        assert call(frozen, "POST", f"/v1/jobs/{queued['id']}/cancel")[0] == 200
        assert call(frozen, "DELETE", f"/v1/jobs/{queued['id']}")[0] == 200
        assert_compact_json_bodies(json_bodies, at_least=len(answered))
