"""Server-side best-of-N: chunk planning, fanned execution, and the methods catalog."""

import json
import urllib.request

import pytest

from repro import QuantumCircuit, Target, TranspileJob, TranspileOptions, transpile
from repro.circuit import qasm
from repro.obs import parse_metric
from repro.server import ReproServer
from repro.server.metrics import ServerMetrics
from repro.server.queue import JobQueue
from repro.server.runner import JobRunner
from repro.service.cache import ResultCache
from repro.service.executor import _execute_one


def ensemble_circuit(name: str = "spread6") -> QuantumCircuit:
    circuit = QuantumCircuit(6, name=name)
    for a in range(6):
        for b in range(a + 1, 6):
            circuit.cx(a, b)
    return circuit


def linear_target(qubits: int = 8) -> Target:
    return Target.from_topology("linear", qubits)


def make_runner(**kwargs) -> JobRunner:
    kwargs.setdefault("use_processes", False)
    queue, cache = JobQueue(), ResultCache()
    return JobRunner(queue, cache, ServerMetrics(queue, cache), **kwargs)


class FakePool:
    """Truthy stand-in so chunk planning runs without a real executor."""


class TestChunkPlanning:
    def record(self, best_of=None, routing="sabre", level="O1"):
        job = TranspileJob.from_circuit(
            ensemble_circuit(),
            linear_target(),
            TranspileOptions(routing=routing, level=level, best_of=best_of),
        )
        record, _ = self.runner.queue.submit(job)
        return record

    def setup_method(self):
        self.runner = make_runner(max_workers=4, ensemble_fanout_threshold=4)
        self.runner._pool = FakePool()

    def test_small_ensembles_run_whole(self):
        assert self.runner._ensemble_chunks(self.record(best_of=3)) is None
        assert self.runner._ensemble_chunks(self.record()) is None

    def test_unsupported_routing_runs_whole(self):
        assert self.runner._ensemble_chunks(self.record(best_of=8, routing="none")) is None

    def test_no_pool_runs_whole(self):
        self.runner._pool = None
        assert self.runner._ensemble_chunks(self.record(best_of=8)) is None

    def test_single_worker_runs_whole(self):
        runner = make_runner(max_workers=1, ensemble_fanout_threshold=4)
        runner._pool = FakePool()
        assert runner._ensemble_chunks(self.record(best_of=8)) is None

    def test_chunks_partition_all_trials_balanced(self):
        chunks = self.runner._ensemble_chunks(self.record(best_of=10))
        assert [i for chunk in chunks for i in chunk] == list(range(10))
        assert len(chunks) == 4
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_more_workers_than_trials_caps_at_trials(self):
        chunks = self.runner._ensemble_chunks(self.record(best_of=4))
        assert chunks == [[0], [1], [2], [3]]

    def test_o3_default_ensemble_triggers_fanout(self):
        chunks = self.runner._ensemble_chunks(self.record(level="O3"))
        assert chunks is not None
        assert [i for chunk in chunks for i in chunk] == list(range(4))


class TestExecuteTrialsWorker:
    def test_subset_payload_contract(self):
        job = TranspileJob.from_circuit(
            ensemble_circuit(), linear_target(),
            TranspileOptions(routing="sabre", best_of=4, seed=0),
        )
        raw = _execute_one(job.to_dict(), trials=[1, 3])
        assert raw["ok"]
        ensemble = raw["result"]["ensemble"]
        assert ensemble["executed_trials"] == [1, 3]
        assert ensemble["num_trials"] == 4
        assert ensemble["winner"] in (1, 3)

    def test_error_isolation(self):
        job = TranspileJob.from_circuit(
            ensemble_circuit(), linear_target(),
            TranspileOptions(routing="sabre", best_of=4, seed=0),
        )
        raw = _execute_one(job.to_dict(), trials=[99])
        assert not raw["ok"]
        assert raw["error"]["exc_type"] == "TranspilerError"


class TestFannedServer:
    @pytest.fixture(scope="class")
    def fanned(self):
        handle = ReproServer(
            port=0, use_processes=False, max_workers=2,
            ensemble_fanout_threshold=2,
        ).run_in_thread()
        yield handle
        handle.stop(drain=False, timeout=5)

    def test_fanned_job_matches_local_run(self, fanned):
        client = fanned.client()
        circuit = ensemble_circuit()
        target = linear_target()
        options = TranspileOptions(routing="sabre", seed=0, best_of=4)
        handle = client.submit(circuit, target, options)
        result = handle.result(timeout=60)

        local = transpile(circuit, target, options=options)
        assert qasm.dumps(result.circuit) == qasm.dumps(local.circuit)
        assert result.ensemble["winner_key"] == local.ensemble["winner_key"]
        assert result.ensemble["fanned_chunks"] == [[0, 1], [2, 3]]
        assert [t["trial"] for t in result.ensemble["trials"]] == [0, 1, 2, 3]
        assert result.best_of == 4

        text = client.metrics_text()
        assert parse_metric(text, "repro_ensemble_fanout_total") >= 1
        assert parse_metric(text, "repro_ensemble_trials_total") >= 4

    def test_methods_advertise_best_of_support(self, fanned):
        url = f"http://127.0.0.1:{fanned.server.port}/v1/methods"
        with urllib.request.urlopen(url, timeout=30) as response:
            payload = json.loads(response.read())
        support = {
            method["name"]: method["supports_best_of"]
            for method in payload["routing_methods"]
        }
        assert support["sabre"] is True
        assert support["nassc"] is True
        assert support["none"] is False
