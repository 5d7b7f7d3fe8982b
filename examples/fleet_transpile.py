"""Scale-out transpilation: a coordinator fronting a fleet of worker nodes.

Builds on ``remote_transpile.py``'s single server: here a :class:`FleetCoordinator`
places jobs across multiple :class:`FleetWorkerServer` nodes by consistent-hashing the
job's content fingerprint, so identical work always lands on the same node's cache.
The example

  * boots a coordinator plus two worker nodes (all in-process, ephemeral ports),
  * submits jobs through the coordinator exactly as against a solo server
    (``repro.client`` needs no fleet-specific code),
  * shows placement affinity: resubmitting the same circuit hits the owning
    node's cache,
  * shows the peer cache tier: a node that does not own a fingerprint fetches the
    result from the owner instead of recomputing,
  * stops one worker and watches the fleet keep serving,
  * reads the fleet Prometheus page (placements, reroutes, per-node queue depth).

Run with:  python examples/fleet_transpile.py
           REPRO_SMOKE=1 python examples/fleet_transpile.py   (quick CI-sized run)
"""

import os
import time

from repro import ReproClient, Target, TranspileOptions, qasm, transpile
from repro.benchlib import table_benchmarks
from repro.fleet import FleetCoordinator, FleetWorkerServer
from repro.obs import iter_samples, parse_metric
from repro.server.http import ThreadedServer

SMOKE = os.environ.get("REPRO_SMOKE") == "1"


def main() -> None:
    # -- boot the fleet: one coordinator, two single-threaded worker nodes ------
    coordinator = ThreadedServer(
        FleetCoordinator(port=0, heartbeat_interval=0.2)
    ).start()
    workers = [
        ThreadedServer(
            FleetWorkerServer(
                coordinator.url, port=0, node_id=f"node-{i}",
                use_processes=False, max_workers=2,
            )
        ).start()
        for i in range(2)
    ]
    client = ReproClient(coordinator.url, client_id="fleet-example")
    while client.healthz().get("nodes_alive", 0) < len(workers):
        time.sleep(0.05)
    health = client.healthz()
    print(f"coordinator up: {health['nodes_alive']}/{health['nodes']} nodes alive, "
          f"{health['workers']} pool workers total")

    target = Target.from_topology("linear", 25)
    options = TranspileOptions(routing="nassc", seed=3)
    case = table_benchmarks(names=["grover_n4"])[0]
    circuit = case.build()

    try:
        # -- a job placed by fingerprint; result identical to a local compile ----
        handle = client.submit(circuit, target, options, name=case.name)
        remote = handle.result(timeout=120)
        owner = handle.status()["node"]
        local = transpile(circuit, target, options)
        identical = qasm.dumps(remote.circuit) == qasm.dumps(local.circuit)
        print(f"\n{case.name} placed on {owner}; "
              f"bit-identical to local transpile(): {identical}")

        # -- placement affinity: the resubmission hits the same node's cache -----
        again = client.submit(circuit, target, options, name=case.name)
        status = again.status()
        print(f"resubmitted: node={status['node']} from_cache={status['from_cache']}")

        # -- peer cache tier: ask a non-owner node directly ----------------------
        other = next(w for w in workers if w.server.node_id != owner)
        sideways = ReproClient(other.url).submit(circuit, target, options)
        sideways.result(timeout=120)
        print(f"{other.server.node_id} (not the owner) answered via the peer "
              f"cache tier instead of recomputing")

        # -- spread a little more work around, then lose a node ------------------
        names = ["grover_n4"] if SMOKE else ["grover_n4", "vqe_n8", "adder_n10"]
        handles = [
            client.submit(kase.build(), target,
                          TranspileOptions(routing="sabre", seed=seed))
            for kase in table_benchmarks(names=names)
            for seed in ((0,) if SMOKE else (0, 1))
        ]
        for h in handles:
            h.result(timeout=120)
        victim = workers.pop()
        victim.stop(timeout=10)
        print(f"\nstopped {victim.server.node_id}; fleet still ready: "
              f"{client.healthz()['ready']} "
              f"({client.healthz()['nodes_alive']} node(s) alive)")
        after = client.submit(circuit, target, TranspileOptions(routing="sabre", seed=99))
        after.result(timeout=120)
        print("new work still served after the node left")

        # -- the fleet Prometheus page -------------------------------------------
        text = client.metrics_text()
        placements = sum(
            value for sample, value in iter_samples(text)
            if sample.startswith("repro_fleet_placements_total")
        )
        print(f"\nplacements: {placements:.0f} across the fleet; nodes alive: "
              f"{parse_metric(text, 'repro_fleet_nodes_alive'):.0f}")
    finally:
        for handle in workers:
            handle.stop(drain=False, timeout=10)
        coordinator.stop(timeout=10)
    print("fleet drained and stopped")


if __name__ == "__main__":
    main()
