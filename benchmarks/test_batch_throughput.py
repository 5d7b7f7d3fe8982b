"""Batch transpilation service throughput: jobs/sec, 1 vs N workers, cold vs warm cache.

Tracks the speedup of :class:`repro.service.BatchTranspiler` over serial in-process
transpilation so future PRs can measure regressions.  The quick configuration uses the
small table benchmarks; ``REPRO_BENCH_FULL=1`` scales the batch up.
"""

import time

import pytest

from repro.benchlib import table_benchmarks
from repro.hardware import Target, linear_coupling_map
from repro.service import BatchTranspiler, ResultCache, TranspileJob

from bench_config import FULL, save_report

BATCH_NAMES = (
    ["grover_n4", "grover_n6", "vqe_n8", "qpe_n9", "adder_n10"]
    if FULL
    else ["grover_n4", "vqe_n8", "adder_n10"]
)
BATCH_SEEDS = (0, 1, 2) if FULL else (0, 1)
WORKER_COUNTS = (1, 2, 4)


def build_jobs():
    target = Target(coupling_map=linear_coupling_map(25))
    jobs = []
    for case in table_benchmarks(names=BATCH_NAMES):
        circuit = case.build()
        for routing in ("sabre", "nassc"):
            for seed in BATCH_SEEDS:
                jobs.append(
                    TranspileJob.from_circuit(
                        circuit, target, routing=routing, seed=seed,
                        name=f"{case.name}[{routing},s{seed}]",
                    )
                )
    return jobs


@pytest.fixture(scope="module")
def jobs():
    return build_jobs()


@pytest.fixture(scope="module")
def throughput_report(jobs):
    """Measure cold jobs/sec at each worker count plus the warm-cache rate, once."""
    lines = [f"Batch transpiler throughput ({len(jobs)} jobs, linear_25)"]
    rates = {}
    for workers in WORKER_COUNTS:
        executor = BatchTranspiler(max_workers=workers, cache=ResultCache())
        start = time.perf_counter()
        outcomes = executor.run(jobs)
        elapsed = time.perf_counter() - start
        assert all(outcome.ok for outcome in outcomes)
        rates[workers] = len(jobs) / elapsed
        lines.append(f"cold, {workers} worker(s): {rates[workers]:8.2f} jobs/sec ({elapsed:.2f}s)")
        if workers == max(WORKER_COUNTS):
            start = time.perf_counter()
            warm = executor.run(jobs)
            elapsed = time.perf_counter() - start
            assert all(outcome.from_cache for outcome in warm)
            rates["warm"] = len(jobs) / elapsed
            lines.append(f"warm cache:        {rates['warm']:8.2f} jobs/sec ({elapsed:.2f}s)")
    report = "\n".join(lines)
    print("\n" + report)
    save_report("batch_throughput.txt", report)
    return rates


def test_all_worker_counts_complete(throughput_report):
    assert set(WORKER_COUNTS) <= set(throughput_report)


def test_warm_cache_is_fastest(throughput_report):
    """Serving a batch from the content-addressed cache must beat recomputing it."""
    assert throughput_report["warm"] > max(throughput_report[w] for w in WORKER_COUNTS)


def test_parallel_not_slower_than_half_serial(throughput_report):
    """Fan-out overhead must never cost more than 2x on this batch size."""
    assert throughput_report[max(WORKER_COUNTS)] > 0.5 * throughput_report[1]


@pytest.mark.benchmark(group="batch-throughput")
def test_single_job_service_overhead(benchmark, jobs):
    """Fingerprint + cache + serialisation overhead on a warm single-job run."""
    executor = BatchTranspiler(max_workers=1)
    executor.run([jobs[0]])  # prime the cache
    outcome = benchmark(lambda: executor.run_one(jobs[0]))
    assert outcome.from_cache
