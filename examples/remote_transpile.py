"""Online transpilation: submit circuits to a running server and stream progress.

Demonstrates the service layer's *online* face (``repro.server`` + ``repro.client``)
above the batch example in ``batch_transpile.py``:

  * start (or attach to) a transpilation server,
  * submit a job and stream its queued -> running -> done transitions live,
  * prove the remote result is bit-identical to a local ``transpile()`` call,
  * resubmit the same work and watch it come back from the content-addressed cache,
  * fan a small batch out through ``POST /v1/batch`` and read the Prometheus metrics.

Run with:  python examples/remote_transpile.py

Set ``REPRO_SERVER_URL`` to use an already-running ``python -m repro serve`` instance;
otherwise the example boots a private in-process server on an ephemeral port.
"""

import os

from repro import ReproClient, Target, TranspileJob, TranspileOptions, qasm, transpile
from repro.benchlib import table_benchmarks
from repro.obs import parse_metric
from repro.server import ReproServer

SMOKE = os.environ.get("REPRO_SMOKE") == "1"


def demo(url: str) -> None:
    client = ReproClient(url, client_id="example")
    health = client.healthz()
    print(f"server {health['version']} is {health['status']} "
          f"(pool={health['pool']}, queue bound={health['queue_bound']})")

    target = Target.from_topology("linear", 25)
    options = TranspileOptions(routing="nassc", seed=0)
    case = table_benchmarks(names=["grover_n4"])[0]
    circuit = case.build()

    # -- single job with live event streaming --------------------------------
    handle = client.submit(circuit, target, options, name=case.name)
    print(f"\nsubmitted {case.name}: id={handle.id} fingerprint={handle.fingerprint[:12]}...")
    for event in handle.events():
        detail = event["detail"]
        if event["state"] == "running":
            print(f"  -> running (waited {detail['queue_wait_seconds'] * 1e3:.1f} ms in queue)")
        elif event["state"] == "done":
            slowest = max(detail["pass_timing_log"], key=lambda item: item[1])
            print(f"  -> done: {detail['cx_count']} CNOTs, depth {detail['depth']} "
                  f"(slowest pass: {slowest[0]}, {slowest[1] * 1e3:.1f} ms)")
        else:
            print(f"  -> {event['state']}")
    remote = handle.result()

    # -- the remote result is bit-identical to a local compile ----------------
    local = transpile(circuit, target, options)
    identical = qasm.dumps(remote.circuit) == qasm.dumps(local.circuit)
    print(f"remote result bit-identical to local transpile(): {identical}")

    # -- identical resubmission is answered from the shared result cache ------
    again = client.submit(circuit, target, options, name=case.name)
    status = again.status()
    print(f"resubmitted: state={status['state']} from_cache={status['from_cache']}")

    # -- batch fan-out through POST /v1/batch ---------------------------------
    names = ["grover_n4"] if SMOKE else ["grover_n4", "adder_n10"]
    seeds = (0,) if SMOKE else (0, 1)
    jobs = [
        TranspileJob.from_circuit(
            kase.build(), target, TranspileOptions(routing=routing, seed=seed),
            name=f"{kase.name}[{routing},s{seed}]",
        )
        for kase in table_benchmarks(names=names)
        for routing in ("sabre", "nassc")
        for seed in seeds
    ]
    handles = client.submit_batch(jobs)
    results = [h.result() for h in handles]
    print(f"\nbatch of {len(jobs)} jobs done; total CNOTs = "
          f"{sum(result.cx_count for result in results)}")

    # -- observability: the Prometheus page ----------------------------------
    text = client.metrics_text()
    print(f"cache hit rate:  {parse_metric(text, 'repro_cache_hit_rate'):.0%}")
    print(f"jobs done:       {parse_metric(text, 'repro_jobs_finished_total', {'outcome': 'done'}):.0f}")
    print(f"served cached:   {parse_metric(text, 'repro_jobs_finished_total', {'outcome': 'cached'}):.0f}")


def main() -> None:
    url = os.environ.get("REPRO_SERVER_URL")
    if url:
        demo(url)
        return
    # Threads instead of a process pool: the example's circuits are small, and a thread
    # pool keeps startup instant.  `python -m repro serve` defaults to processes.
    server = ReproServer(port=0, use_processes=False, max_workers=2)
    with server.run_in_thread() as embedded:
        print(f"started embedded server on {embedded.url}")
        demo(embedded.url)
    print("server drained and stopped")


if __name__ == "__main__":
    main()
