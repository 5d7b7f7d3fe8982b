"""Server-side best-of-N: served ensemble jobs, the worker payload, and the methods catalog."""

import json
import urllib.request

import pytest

from repro import QuantumCircuit, Target, TranspileJob, TranspileOptions, transpile
from repro.benchlib import grover_n4
from repro.circuit import qasm
from repro.obs import parse_metric
from repro.server import ReproServer
from repro.service.executor import _execute_one


def ensemble_circuit(name: str = "spread6") -> QuantumCircuit:
    circuit = QuantumCircuit(6, name=name)
    for a in range(6):
        for b in range(a + 1, 6):
            circuit.cx(a, b)
    return circuit


def assert_matches_local(result, circuit, target, options):
    """The served result is the local transpile(): circuit, winner and every trial."""
    local = transpile(circuit, target, options=options)
    assert qasm.dumps(result.circuit) == qasm.dumps(local.circuit)
    assert result.ensemble["winner_key"] == local.ensemble["winner_key"]
    assert result.ensemble["trials"] == local.ensemble["trials"]
    assert result.best_of == local.best_of


class TestServedEnsemble:
    @pytest.fixture(scope="class")
    def server(self):
        handle = ReproServer(port=0, use_processes=False, max_workers=2).run_in_thread()
        yield handle
        handle.stop(drain=False, timeout=5)

    @pytest.mark.parametrize(
        "routing, best_of", [("sabre", 4), ("nassc", 8)], ids=["sabre-4", "nassc-8"]
    )
    def test_served_job_matches_local_run(self, server, routing, best_of):
        # A best_of job runs whole in one pool worker, however many trials it has and
        # however many workers sit idle.
        circuit = ensemble_circuit()
        target = Target.from_topology("linear", 8)
        options = TranspileOptions(routing=routing, seed=0, best_of=best_of)
        result = server.client().submit(circuit, target, options).result(timeout=60)
        assert_matches_local(result, circuit, target, options)
        assert [t["trial"] for t in result.ensemble["trials"]] == list(range(best_of))
        assert result.best_of == best_of

    def test_ensemble_pass_time_is_exported(self, server):
        client = server.client()
        options = TranspileOptions(routing="sabre", seed=7, best_of=3)
        client.submit(ensemble_circuit("timed"), Target.from_topology("linear", 8), options
                      ).result(timeout=60)
        samples = parse_metric(
            client.metrics_text(), "repro_pass_seconds_count", {"pass": "EnsembleRouting"}
        )
        assert samples >= 1

    def test_methods_advertise_best_of_support(self, server):
        url = f"http://127.0.0.1:{server.server.port}/v1/methods"
        with urllib.request.urlopen(url, timeout=30) as response:
            payload = json.loads(response.read())
        support = {
            method["name"]: method["supports_best_of"]
            for method in payload["routing_methods"]
        }
        assert support["sabre"] is True
        assert support["nassc"] is True
        assert support["none"] is False


class TestProcessPoolEnsemble:
    @pytest.fixture(scope="class")
    def server(self):
        handle = ReproServer(port=0, use_processes=True, max_workers=2).run_in_thread()
        yield handle
        handle.stop(drain=False, timeout=5)

    def test_o3_job_matches_local_run(self, server):
        # O3 means best_of=4 and noise-aware routing on a calibrated device, compiled in
        # a pool worker process wherever the host allows one.
        circuit = grover_n4()
        target = Target.from_topology("montreal", 27, calibrated=True)
        options = TranspileOptions(routing="nassc", seed=0, level="O3")
        result = server.client().submit(circuit, target, options).result(timeout=120)
        assert_matches_local(result, circuit, target, options)
        assert result.best_of == 4


class TestEnsembleWorkerPayload:
    def test_payload_carries_every_trial(self):
        circuit = ensemble_circuit()
        target = Target.from_topology("linear", 8)
        options = TranspileOptions(routing="sabre", best_of=4, seed=0)
        raw = _execute_one(TranspileJob.from_circuit(circuit, target, options).to_dict())
        assert raw["ok"]
        ensemble = raw["result"]["ensemble"]
        assert set(ensemble) == {"num_trials", "winner", "winner_key", "trials"}
        assert ensemble["num_trials"] == 4
        assert [t["trial"] for t in ensemble["trials"]] == [0, 1, 2, 3]
        local = transpile(circuit, target, options=options)
        assert ensemble["winner_key"] == local.ensemble["winner_key"]

    def test_failing_ensemble_job_is_isolated(self):
        job = TranspileJob.from_circuit(
            ensemble_circuit(), Target.from_topology("linear", 4),
            TranspileOptions(routing="sabre", best_of=4, seed=0),
        )
        raw = _execute_one(job.to_dict())
        assert not raw["ok"]
        assert raw["error"]["exc_type"] == "TranspilerError"
        assert raw["error"]["fingerprint"] == job.fingerprint()
