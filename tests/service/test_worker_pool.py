"""The one worker pool (``repro.service.executor.WorkerPool``) and its dead-worker policy.

Every crash here happens in a pool worker or a child process, never in pytest's own
process: the tests use process pools only, and they patch ``_execute_one`` before the
pool forks, so only its workers inherit the patch.
"""

import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import pytest

from repro import QuantumCircuit, ReproClient, Target, TranspileOptions, transpile
from repro.circuit import qasm
from repro.server import ReproServer
from repro.service import BatchTranspiler, TranspileJob
from repro.service import executor
from repro.service.executor import WorkerPool, _execute_one

SRC = str(Path(__file__).resolve().parents[2] / "src")


def circuit(name: str) -> QuantumCircuit:
    circ = QuantumCircuit(4, name=name)
    circ.h(0)
    circ.cx(0, 1)
    circ.cx(0, 3)
    circ.crx(0.3, 1, 3)
    circ.cx(2, 0)
    return circ


def grid() -> list:
    """Six distinct named jobs, more than two workers can hold at once."""
    target = Target.from_topology("linear", 5)
    return [
        TranspileJob.from_circuit(
            circuit(f"{routing}-{seed}"), target, routing=routing, seed=seed,
            name=f"{routing}-{seed}",
        )
        for routing in ("sabre", "nassc")
        for seed in range(3)
    ]


def dumps(outcomes) -> list:
    return [qasm.dumps(outcome.result.circuit) if outcome.ok else None for outcome in outcomes]


def exit_once(name: str, marker: str, payload, trace_ctx=None):
    """``_execute_one``, except that the job called ``name`` kills its worker process
    on its first attempt (the one that finds no ``marker`` file, and creates it)."""
    if payload["name"] == name and not os.path.exists(marker):
        Path(marker).touch()
        os._exit(1)
    return _execute_one(payload, trace_ctx)


def first_pool_only(failure: str) -> type:
    """A ``ProcessPoolExecutor`` whose first instance works and whose later ones cannot be
    built (``failure == "build"``) or cannot start a worker (``failure == "submit"``)."""
    built = []

    class FirstPoolOnly(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            if built and failure == "build":
                raise OSError("Too many open files")
            super().__init__(*args, **kwargs)
            built.append(self)

        def submit(self, *args, **kwargs):
            if self is not built[0]:
                raise OSError("Resource temporarily unavailable")
            return super().submit(*args, **kwargs)

    return FirstPoolOnly


def pool_workers(process: subprocess.Popen) -> set:
    listing = subprocess.run(
        ["pgrep", "-P", str(process.pid)], capture_output=True, text=True, timeout=30
    )
    return {int(pid) for pid in listing.stdout.split()}


def serve(*args: str):
    """Boot ``python -m repro serve --port 0 *args``; returns the process and a client."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
        stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    banner = process.stderr.readline()
    match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
    if match is None:
        process.kill()
        process.wait(timeout=10)
    assert match, f"no listen banner in {banner!r}"
    return process, ReproClient(f"http://127.0.0.1:{match.group(1)}")


class TestBatch:
    def test_job_whose_worker_died_once_runs_again(self, monkeypatch, tmp_path):
        jobs = grid()
        serial = BatchTranspiler(max_workers=1).run(jobs)
        marker = tmp_path / "crashed"
        monkeypatch.setattr(executor, "_execute_one", partial(exit_once, jobs[1].name, str(marker)))
        outcomes = BatchTranspiler(max_workers=2).run(jobs)
        assert marker.exists(), "the marked job never killed its worker"
        assert all(outcome.ok for outcome in outcomes)
        assert dumps(outcomes) == dumps(serial)

    def test_batch_returns_after_its_workers_exit(self):
        """The next batch then forks from a parent with no pool left winding down."""
        before = set(multiprocessing.active_children())
        outcomes = BatchTranspiler(max_workers=2).run(grid()[:3])
        assert all(outcome.ok for outcome in outcomes)
        assert set(multiprocessing.active_children()) <= before

    @pytest.mark.parametrize("failure", ["build", "submit"])
    def test_job_without_a_replacement_pool_fails_alone(self, monkeypatch, tmp_path, failure):
        """When no replacement pool can be built or start a worker, the jobs that needed
        one settle as errors: the batch returns, and no job runs in the caller's process."""
        jobs = grid()
        serial = dumps(BatchTranspiler(max_workers=1).run(jobs))
        marker = tmp_path / "crashed"
        monkeypatch.setattr(executor, "_execute_one", partial(exit_once, jobs[1].name, str(marker)))
        monkeypatch.setattr(executor, "ProcessPoolExecutor", first_pool_only(failure))
        outcomes = []
        batch = threading.Thread(
            target=lambda: outcomes.extend(BatchTranspiler(max_workers=2).run(jobs)), daemon=True
        )
        batch.start()
        batch.join(timeout=120)
        assert outcomes, "the batch never returned"
        assert marker.exists(), "the marked job never killed its worker"
        errors = {o.job.name: o.error.exc_type for o in outcomes if not o.ok}
        assert errors[jobs[1].name] == "OSError"  # in-process, its rerun would have passed
        assert set(errors.values()) == {"OSError"}
        assert all(text is None or text == serial[i] for i, text in enumerate(dumps(outcomes)))

    def test_poison_job_settles_as_worker_crashed(self, tmp_path):
        """A job that kills every worker it runs on fails alone; the caller survives."""
        jobs = grid()
        serial = dumps(BatchTranspiler(max_workers=1).run(jobs))
        poison = jobs[2].name
        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps([job.to_dict() for job in jobs]))
        script = f"""
import json, os
from repro.service import BatchTranspiler, ResultCache, TranspileJob
from repro.service import executor
from repro.circuit import qasm

run_job = executor._execute_one

def poison(payload, trace_ctx=None):
    if payload["name"] == {poison!r}:
        os._exit(1)
    return run_job(payload, trace_ctx)

executor._execute_one = poison
with open({str(spec)!r}) as listing:
    jobs = [TranspileJob.from_dict(entry) for entry in json.load(listing)]
cache = ResultCache()
outcomes = BatchTranspiler(max_workers=2, cache=cache).run(jobs)
print(json.dumps({{
    "stores": cache.stats.stores,
    "outcomes": [
        {{"name": o.job.name, "qasm": qasm.dumps(o.result.circuit)}} if o.ok
        else {{"name": o.job.name, "error": o.error.exc_type,
              "fingerprint": o.error.fingerprint, "job_name": o.error.job_name}}
        for o in outcomes
    ],
}}))
"""
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=180,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert run.returncode == 0, run.stderr
        report = json.loads(run.stdout)
        outcomes = report["outcomes"]
        crashed = {o["name"] for o in outcomes if o.get("error") == "WorkerCrashed"}
        assert poison in crashed
        assert len(crashed - {poison}) <= 1  # at most workers - 1 jobs ran beside it
        assert all("error" not in o or o["error"] == "WorkerCrashed" for o in outcomes)
        poisoned = next(o for o in outcomes if o["name"] == poison)
        assert poisoned["fingerprint"] == jobs[2].fingerprint()
        assert poisoned["job_name"] == poison
        ok = [(i, o) for i, o in enumerate(outcomes) if "qasm" in o]
        assert all(o["qasm"] == serial[i] for i, o in ok)
        assert report["stores"] == len(ok)


class TestServer:
    def test_killed_worker_costs_no_later_job(self):
        """A SIGKILLed pool worker of ``repro serve`` costs neither a later job nor the
        server (whose event loop once took the pool's SIGTERM to the other worker)."""
        target = Target.from_topology("linear", 5)
        process, client = serve("--workers", "2")
        try:
            client.submit(circuit("warm"), target, TranspileOptions(seed=0)).result(timeout=60)
            workers = pool_workers(process)
            assert len(workers) == 2, workers
            victim = min(workers)
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while victim in pool_workers(process):  # until the server has reaped it
                assert time.monotonic() < deadline, "the killed worker was never reaped"
                time.sleep(0.05)
            for seed in (1, 2):
                options = TranspileOptions(routing="nassc", seed=seed)
                served = client.submit(circuit("after"), target, options).result(timeout=60)
                local = transpile(circuit("after"), target, options)
                assert qasm.dumps(served.circuit) == qasm.dumps(local.circuit)
            health = client.healthz()
            assert health["pool"] == "process"
            assert health["ready"] is True
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=15)
            finally:
                process.kill()  # a no-op once it has exited
                process.wait(timeout=10)
                process.stderr.close()

    def test_job_whose_worker_died_once_completes(self, monkeypatch, tmp_path):
        marker = tmp_path / "crashed"
        monkeypatch.setattr(executor, "_execute_one", partial(exit_once, "victim", str(marker)))
        target = Target.from_topology("linear", 5)
        handle = ReproServer(port=0, use_processes=True, max_workers=2).run_in_thread()
        try:
            options = TranspileOptions(routing="sabre", seed=3)
            served = handle.client().submit(
                circuit("victim"), target, options, name="victim"
            ).result(timeout=60)
        finally:
            handle.stop(drain=False, timeout=5)
        assert marker.exists(), "the marked job never killed its worker"
        local = transpile(circuit("victim"), target, options)
        assert qasm.dumps(served.circuit) == qasm.dumps(local.circuit)


class TestThreadFallback:
    def test_no_process_pool_means_threads(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("process pools are unavailable")

        monkeypatch.setattr(executor, "ProcessPoolExecutor", refuse)
        pool = WorkerPool(2, False)
        try:
            assert pool.kind == "thread"
        finally:
            pool.shutdown(True)

        jobs = grid()[:3]
        outcomes = BatchTranspiler(max_workers=2).run(jobs)
        assert dumps(outcomes) == dumps(BatchTranspiler(max_workers=1).run(jobs))

        target = Target.from_topology("linear", 5)
        handle = ReproServer(port=0, use_processes=True, max_workers=2).run_in_thread()
        try:
            client = handle.client()
            assert client.healthz()["pool"] == "thread"
            options = TranspileOptions(routing="sabre", seed=5)
            served = client.submit(circuit("threaded"), target, options).result(timeout=60)
        finally:
            handle.stop(drain=False, timeout=5)
        local = transpile(circuit("threaded"), target, options)
        assert qasm.dumps(served.circuit) == qasm.dumps(local.circuit)

