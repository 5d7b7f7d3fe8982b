"""Tests for the batch executor: determinism, caching, dedup, and error isolation."""

import pytest

from repro import QuantumCircuit, Target, linear_coupling_map
from repro.circuit import qasm
from repro.service import BatchTranspiler, ResultCache, TranspileJob, transpile_batch


def small_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(4, name="exec")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.cx(0, 3)
    circuit.crx(0.3, 1, 3)
    circuit.cx(2, 0)
    return circuit


def batch_jobs(seeds=(0, 1)) -> list:
    target = Target(coupling_map=linear_coupling_map(5))
    circuit = small_circuit()
    return [
        TranspileJob.from_circuit(circuit, target, routing=routing, seed=seed)
        for routing in ("sabre", "nassc")
        for seed in seeds
    ]


def metrics(outcomes):
    return [
        (o.result.cx_count, o.result.depth, o.result.num_swaps, qasm.dumps(o.result.circuit))
        for o in outcomes
    ]


class TestDeterminism:
    def test_parallel_results_bit_identical_to_serial(self):
        """Regression: fixed seeds must give the same circuits serial vs parallel."""
        jobs = batch_jobs()
        serial = BatchTranspiler(max_workers=1).run(jobs)
        parallel = BatchTranspiler(max_workers=2, chunksize=1).run(jobs)
        assert all(o.ok for o in serial + parallel)
        assert metrics(serial) == metrics(parallel)

    def test_outcomes_preserve_job_order(self):
        jobs = batch_jobs()
        outcomes = BatchTranspiler(max_workers=2).run(jobs)
        assert [o.job for o in outcomes] == jobs
        assert [o.fingerprint for o in outcomes] == [j.fingerprint() for j in jobs]


class TestCaching:
    def test_warm_rerun_is_all_cache_hits(self):
        executor = BatchTranspiler(max_workers=1)
        jobs = batch_jobs()
        cold = executor.run(jobs)
        assert not any(o.from_cache for o in cold)
        warm = executor.run(jobs)
        assert all(o.from_cache for o in warm)
        assert executor.stats.misses == len(jobs)
        assert executor.stats.hits == len(jobs)
        assert metrics(cold) == metrics(warm)

    def test_duplicate_jobs_in_one_batch_execute_once(self):
        cache = ResultCache()
        executor = BatchTranspiler(max_workers=1, cache=cache)
        job = batch_jobs(seeds=(0,))[0]
        outcomes = executor.run([job, job, job])
        assert all(o.ok for o in outcomes)
        # One execution, one store: the duplicates were deduped inside the batch.
        assert cache.stats.stores == 1
        assert len({o.result.cx_count for o in outcomes}) == 1

    def test_shared_disk_cache_across_executors(self, tmp_path):
        directory = str(tmp_path / "cache")
        jobs = batch_jobs(seeds=(0,))
        first = BatchTranspiler(max_workers=1, cache=ResultCache(directory=directory))
        first.run(jobs)
        second = BatchTranspiler(max_workers=1, cache=ResultCache(directory=directory))
        outcomes = second.run(jobs)
        assert all(o.from_cache for o in outcomes)
        assert second.stats.misses == 0
        assert second.stats.disk_hits == len(jobs)


class TestErrorIsolation:
    def test_failed_job_does_not_kill_the_batch(self):
        target = Target(coupling_map=linear_coupling_map(5))
        too_big = QuantumCircuit(6)
        too_big.cx(0, 5)
        bad = TranspileJob.from_circuit(too_big, target, routing="sabre", seed=0)
        jobs = [bad] + batch_jobs(seeds=(0,))
        for workers in (1, 2):
            outcomes = BatchTranspiler(max_workers=workers).run(jobs)
            assert not outcomes[0].ok
            assert outcomes[0].error is not None
            assert outcomes[0].error.exc_type == "TranspilerError"
            assert all(o.ok for o in outcomes[1:])

    def test_unwrap_raises_with_job_context(self):
        target = Target(coupling_map=linear_coupling_map(5))
        too_big = QuantumCircuit(6, name="too_big")
        too_big.cx(0, 5)
        bad = TranspileJob.from_circuit(too_big, target, routing="sabre", seed=0)
        outcome = BatchTranspiler(max_workers=1).run_one(bad)
        with pytest.raises(RuntimeError, match="too_big"):
            outcome.unwrap()

    def test_worker_traceback_propagates_into_outcome(self):
        """The full worker-side traceback must cross the process boundary so the online
        server can return actionable error bodies, not bare exception class names."""
        target = Target(coupling_map=linear_coupling_map(5))
        too_big = QuantumCircuit(6, name="too_big")
        too_big.cx(0, 5)
        bad = TranspileJob.from_circuit(too_big, target, routing="sabre", seed=0)
        for workers in (1, 2):
            # workers=2 with a multi-job batch forces the real process-pool path, so the
            # traceback demonstrably crosses the process boundary.
            outcome = BatchTranspiler(max_workers=workers).run(
                [bad] + batch_jobs(seeds=(workers,))
            )[0]
            assert outcome.error is not None
            assert "Traceback (most recent call last)" in outcome.error.traceback
            assert "TranspilerError" in outcome.error.traceback
            # and it survives the JSON round trip the server/cache layers use
            from repro.service.jobs import JobError

            assert JobError.from_dict(outcome.error.to_dict()).traceback == outcome.error.traceback

    def test_errors_are_not_cached(self):
        target = Target(coupling_map=linear_coupling_map(5))
        too_big = QuantumCircuit(6)
        too_big.cx(0, 5)
        bad = TranspileJob.from_circuit(too_big, target, routing="sabre", seed=0)
        executor = BatchTranspiler(max_workers=1)
        executor.run([bad])
        assert executor.stats.stores == 0
        rerun = executor.run([bad])
        assert not rerun[0].from_cache


class TestProgressAndHelpers:
    def test_progress_callback_sees_every_job(self):
        jobs = batch_jobs()
        seen = []
        BatchTranspiler(max_workers=2).run(
            jobs, progress=lambda done, total, outcome: seen.append((done, total, outcome.ok))
        )
        assert len(seen) == len(jobs)
        assert [entry[0] for entry in sorted(seen)] == list(range(1, len(jobs) + 1))
        assert all(entry[1] == len(jobs) for entry in seen)

    def test_progress_callback_exception_propagates(self):
        """A raising callback is the caller's bug: it must surface, not be swallowed
        by the pool-failure fallback (which would re-execute and double-settle)."""
        jobs = batch_jobs(seeds=(0,))

        def bad_callback(done, total, outcome):
            raise KeyError("callback bug")

        for workers in (1, 2):
            with pytest.raises(KeyError, match="callback bug"):
                BatchTranspiler(max_workers=workers).run(jobs, progress=bad_callback)

    def test_cached_results_carry_each_jobs_own_name(self):
        """Dedup/cache shares payloads between identical jobs, but never their labels."""
        target = Target(coupling_map=linear_coupling_map(5))
        job_a = TranspileJob.from_circuit(small_circuit(), target, seed=0, name="first")
        job_b = TranspileJob.from_circuit(small_circuit(), target, seed=0, name="second")
        assert job_a.fingerprint() == job_b.fingerprint()
        outcomes = BatchTranspiler(max_workers=1).run([job_a, job_b])
        assert outcomes[1].from_cache or outcomes[1].ok
        assert outcomes[0].result.circuit.name == "first"
        assert outcomes[1].result.circuit.name == "second"

    def test_transpile_batch_helper(self):
        outcomes = transpile_batch(batch_jobs(seeds=(0,)), max_workers=1)
        assert all(o.ok for o in outcomes)

    def test_results_unwraps_in_order(self):
        jobs = batch_jobs(seeds=(0,))
        results = BatchTranspiler(max_workers=1).results(jobs)
        assert [r.routing for r in results] == ["sabre", "nassc"]
