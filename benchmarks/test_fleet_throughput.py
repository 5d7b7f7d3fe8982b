"""Fleet throughput: concurrent clients against 1 vs N worker nodes.

Boots a real :class:`FleetCoordinator` fronting N :class:`FleetWorkerServer` nodes on
ephemeral ports (each node executing on its own single-worker **process** pool, so N
nodes genuinely mean N cores working — a thread pool would serialise on the GIL and
hide the scale-out).  Concurrent clients replay a transpile grid through the
coordinator and the harness reports, per fleet size:

* cache-cold jobs/sec and per-job p50/p99 latency of the median of ``COLD_PASSES``
  passes — each pass on freshly booted nodes, fleet sizes alternating — with every
  pass recorded,
* a warm resubmission replay — placement affinity routes every duplicate to the node
  whose cache holds it, so the warm rate measures cache-hit amplification — with the
  fleet's local-hit and peer-hit counters,
* bit-identity of a fleet-served result against a local in-process ``transpile()``.

Results go to ``benchmarks/results/fleet_throughput.{txt,json}``.  Smoke mode
(``REPRO_BENCH_SMOKE=1``, used by CI) shrinks the grid; ``REPRO_BENCH_FULL=1`` scales
the warm replay into the thousands of requests.
"""

import json
import multiprocessing
import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro import ReproClient, Target, TranspileJob, TranspileOptions, transpile
from repro.circuit import qasm
from repro.fleet import FleetCoordinator, FleetWorkerServer
from repro.server.http import ThreadedServer

from bench_config import FULL, RESULTS_DIR, save_report

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("0", "", "false")
GRID_NAMES = (
    ["grover_n4"] if SMOKE
    else (["grover_n4", "grover_n6", "vqe_n8", "qpe_n9", "adder_n10"] if FULL
          else ["grover_n4", "vqe_n8", "adder_n10"])
)
GRID_SEEDS = (0,) if SMOKE else ((0, 1, 2) if FULL else (0, 1))
FLEET_SIZES = (1, 3)
#: Cold passes per fleet size.  One pass of the default grid is about a second of
#: work, too short to rank the fleet sizes on a loaded host; an odd count makes the
#: median pass one measured pass.
COLD_PASSES = 3
CLIENT_THREADS = 2 if SMOKE else 6
HEARTBEAT = 0.2


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS
        return os.cpu_count() or 1


def warm_replays(grid_size: int) -> int:
    """How many times the warm replay resubmits the whole grid (the cache-hit
    amplification measurement).  FULL pushes the replay into the thousands of
    requests; smoke and default stay modest."""
    if SMOKE:
        return 1
    if FULL:
        return max(3, 2000 // max(1, grid_size))
    return 3


def build_jobs():
    """The transpile grid, plus the first (circuit, target) pair for identity checks."""
    from repro.benchlib import table_benchmarks

    target = Target.from_topology("linear", 25)
    jobs = []
    sample = None
    for case in table_benchmarks(names=GRID_NAMES):
        circuit = case.build()
        if sample is None:
            sample = (circuit, target)
        for routing in ("sabre", "nassc"):
            for seed in GRID_SEEDS:
                jobs.append(
                    TranspileJob.from_circuit(
                        circuit, target, TranspileOptions(routing=routing, seed=seed),
                        name=f"{case.name}[{routing},s{seed}]",
                    )
                )
    return jobs, sample


def boot_fleet(num_nodes: int):
    """A coordinator plus ``num_nodes`` workers, one process-pool worker each."""
    coordinator = ThreadedServer(
        FleetCoordinator(port=0, heartbeat_interval=HEARTBEAT)
    ).start()
    workers = [
        ThreadedServer(
            FleetWorkerServer(
                coordinator.url, port=0, node_id=f"bench-node-{index}",
                use_processes=True, max_workers=1, concurrency=1,
            )
        ).start()
        for index in range(num_nodes)
    ]
    client = ReproClient(coordinator.url, timeout=600.0)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if client.healthz().get("nodes_alive", 0) >= num_nodes:
            break
        time.sleep(0.05)
    else:
        raise RuntimeError(f"fleet never reached {num_nodes} alive nodes")
    return coordinator, workers


@contextmanager
def fresh_fleet(num_nodes: int):
    """A freshly booted fleet (cold result caches and pool processes), torn down on exit.

    Pool shutdown is wait=False: the nodes' process-pool children exit asynchronously.
    Teardown waits for them, so the next pass (or the timing-sensitive benchmark
    modules that run after this one) does not measure against their leftover CPU load.
    """
    coordinator, workers = boot_fleet(num_nodes)
    try:
        yield coordinator, workers
    finally:
        for handle in workers:
            handle.stop(drain=False, timeout=10)
        coordinator.stop(timeout=10)
        settle_deadline = time.monotonic() + 10
        while multiprocessing.active_children() and time.monotonic() < settle_deadline:
            time.sleep(0.05)


def drive(url: str, submissions) -> dict:
    """Replay ``submissions`` from concurrent clients; rate + latency percentiles."""
    def one(job):
        client = ReproClient(url, timeout=600.0)
        started = time.perf_counter()
        result = client.submit_job(job).result(timeout=600.0)
        return time.perf_counter() - started, result

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as pool:
        outcomes = list(pool.map(one, submissions))
    elapsed = time.perf_counter() - start
    latencies = sorted(latency for latency, _ in outcomes)
    return {
        "jobs": len(submissions),
        "elapsed_seconds": elapsed,
        "jobs_per_second": len(submissions) / elapsed,
        "latency_p50_seconds": statistics.quantiles(latencies, n=100)[49]
        if len(latencies) >= 2 else latencies[0],
        "latency_p99_seconds": statistics.quantiles(latencies, n=100)[98]
        if len(latencies) >= 2 else latencies[0],
        "results": [result for _, result in outcomes],
    }


def fleet_counters(coordinator, workers) -> dict:
    """Local-hit / peer-hit counters across the fleet (the amplification evidence)."""
    local_hits = local_misses = peer_hits = 0
    for handle in workers:
        health = ReproClient(handle.url).healthz()
        cache = health.get("cache", {})
        local_hits += int(cache.get("hits", 0))
        local_misses += int(cache.get("misses", 0))
    metrics = ReproClient(coordinator.url).metrics_text()
    placements = {}
    for line in metrics.splitlines():
        if line.startswith("repro_fleet_placements_total{"):
            node = line.split('node="', 1)[1].split('"', 1)[0]
            placements[node] = float(line.rsplit(" ", 1)[1])
    from repro.obs.counters import COUNTERS

    snapshot = COUNTERS.snapshot()
    peer_hits = int(snapshot.get("cache.peer.hits", 0))
    return {
        "local_cache_hits": local_hits,
        "local_cache_misses": local_misses,
        "peer_cache_hits_process_wide": peer_hits,
        "placements_by_node": placements,
    }


@pytest.fixture(scope="module")
def fleet_report():
    jobs, (sample_circuit, sample_target) = build_jobs()
    runs = {num_nodes: {} for num_nodes in FLEET_SIZES}
    cold_passes = {num_nodes: [] for num_nodes in FLEET_SIZES}
    pool_kinds = {}
    identity_checked = False
    replays = warm_replays(len(jobs))
    for pass_index in range(COLD_PASSES):
        for num_nodes in FLEET_SIZES:
            with fresh_fleet(num_nodes) as (coordinator, workers):
                cold = drive(coordinator.url, jobs)
                if not identity_checked:
                    # Acceptance: a fleet-served compile is bit-identical to the local
                    # in-process transpile of the same job spec (jobs[0] is the sample
                    # circuit with routing="sabre" and the first grid seed).
                    fleet_result = cold["results"][0]
                    local_result = transpile(
                        sample_circuit, sample_target,
                        routing="sabre", seed=GRID_SEEDS[0],
                    )
                    assert qasm.dumps(fleet_result.circuit) == qasm.dumps(
                        local_result.circuit
                    ), "fleet result diverged from local transpile()"
                    identity_checked = True
                cold.pop("results")
                cold_passes[num_nodes].append(cold)
                if pass_index == COLD_PASSES - 1:
                    # The warm replay follows the last cold pass on the same fleet.
                    warm = drive(coordinator.url, jobs * replays)
                    warm.pop("results")
                    runs[num_nodes]["warm"] = warm
                    runs[num_nodes]["counters"] = fleet_counters(coordinator, workers)
                    pool_kinds[num_nodes] = sorted(
                        {ReproClient(w.url).healthz()["pool"] for w in workers}
                    )
    for num_nodes, passes in cold_passes.items():
        median = sorted(passes, key=lambda run: run["jobs_per_second"])[len(passes) // 2]
        runs[num_nodes]["cold"] = dict(median, passes=passes)

    lines = [
        f"Fleet throughput ({len(jobs)} cold jobs, median of {COLD_PASSES} cold passes, "
        f"warm replay x{replays}, {CLIENT_THREADS} client threads)"
    ]
    for num_nodes, run in runs.items():
        lines.append(
            f"  {num_nodes} node(s) [{'/'.join(pool_kinds[num_nodes])}]: "
            f"cold {run['cold']['jobs_per_second']:7.2f} jobs/s "
            f"(p50 {run['cold']['latency_p50_seconds'] * 1e3:7.1f} ms, "
            f"p99 {run['cold']['latency_p99_seconds'] * 1e3:7.1f} ms) | "
            f"warm {run['warm']['jobs_per_second']:7.2f} jobs/s "
            f"(local hits {run['counters']['local_cache_hits']}) | cold passes "
            + ", ".join(f"{p['jobs_per_second']:.2f}" for p in run["cold"]["passes"])
        )
    report = "\n".join(lines)
    print("\n" + report)
    save_report("fleet_throughput.txt", report)
    payload = {
        "smoke": SMOKE,
        "full": FULL,
        "cpu_cores": available_cores(),
        "fleet_sizes": list(FLEET_SIZES),
        "grid_jobs": len(jobs),
        "cold_passes": COLD_PASSES,
        "warm_replays": replays,
        "client_threads": CLIENT_THREADS,
        "pool_kinds": {str(k): v for k, v in pool_kinds.items()},
        "bit_identical_to_local": identity_checked,
        "runs": {str(k): v for k, v in runs.items()},
    }
    with open(os.path.join(RESULTS_DIR, "fleet_throughput.json"), "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
    return payload


def test_report_written(fleet_report):
    assert os.path.exists(os.path.join(RESULTS_DIR, "fleet_throughput.json"))
    assert set(fleet_report["runs"]) == {str(n) for n in FLEET_SIZES}
    assert fleet_report["bit_identical_to_local"] is True


def test_multinode_beats_single_node_cold(fleet_report):
    """N nodes must out-rate 1 node on the cache-cold grid (the scale-out claim),
    comparing the median of each size's cold passes."""
    single = fleet_report["runs"]["1"]["cold"]["jobs_per_second"]
    multi = fleet_report["runs"][str(FLEET_SIZES[-1])]["cold"]["jobs_per_second"]
    if SMOKE:
        pytest.skip("smoke grid is too small for a stable speedup measurement")
    if any(kinds != ["process"] for kinds in fleet_report["pool_kinds"].values()):
        pytest.skip("process pools unavailable — thread pools serialise on the GIL")
    cores = fleet_report["cpu_cores"]
    if cores < 2:
        pytest.skip(
            f"only {cores} CPU core(s) available — {FLEET_SIZES[-1]} single-core "
            "nodes cannot out-compute one node without extra cores"
        )
    assert multi > single, (
        f"{FLEET_SIZES[-1]} nodes ({multi:.2f} jobs/s) did not beat "
        f"1 node ({single:.2f} jobs/s)"
    )


def test_warm_replay_shows_cache_amplification(fleet_report):
    """Placement affinity must turn the warm replay into cache hits, not recomputes."""
    run = fleet_report["runs"][str(FLEET_SIZES[-1])]
    assert run["warm"]["jobs_per_second"] > run["cold"]["jobs_per_second"]
    # Every warm submission was answered from the cache tier somewhere in the fleet.
    assert run["counters"]["local_cache_hits"] >= run["warm"]["jobs"]


def test_placement_spreads_the_grid(fleet_report):
    """With N nodes, placement must actually use more than one node."""
    placements = fleet_report["runs"][str(FLEET_SIZES[-1])]["counters"][
        "placements_by_node"
    ]
    used = [node for node, count in placements.items() if count > 0]
    if fleet_report["grid_jobs"] < 4:
        pytest.skip("grid too small to guarantee spread")
    assert len(used) >= 2, f"all jobs landed on one node: {placements}"
