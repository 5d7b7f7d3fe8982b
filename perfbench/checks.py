"""Correctness checks on a repetition's outputs, run after its timed region.

Each check returns a list of failure messages; an empty list means every output passed.
Routed circuits are checked against the device's ``CouplingMap`` directly, not through the
program's own ``CheckMap`` pass.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

from repro.circuit import qasm
from repro.evaluation.metrics import is_equivalent_after_routing
from repro.obs import COUNTERS
from repro.service import TranspileJob

#: Largest number of touched physical qubits a routed circuit may have for the
#: statevector equivalence check.
SIMULATE_MAX_QUBITS = 12

#: Processes replaying served jobs locally, one per core.
REPLAY_PROCESSES = 2


def coupling_violations(circuit, coupling):
    """Two-qubit operations of a routed circuit that do not lie on a coupling edge."""
    bad = []
    for inst in circuit.data:
        if len(inst.qubits) == 2 and inst.name != "barrier":
            a, b = inst.qubits
            if not coupling.is_connected(a, b):
                bad.append(f"{inst.name}{inst.qubits}")
    return bad


def _touched_qubits(circuit):
    return {q for inst in circuit.data if inst.name != "barrier" for q in inst.qubits}


def check_paper_grid(cases, results):
    """Coupling adherence for every routed case; statevector equivalence where it fits."""
    failures = []
    for (device, name, routing, circuit, target, _), result in zip(cases, results):
        if result is None:
            continue
        label = f"{device}/{name}/{routing}"
        bad = coupling_violations(result.circuit, target.coupling_map)
        if bad:
            failures.append(f"{label}: {len(bad)} gates off the coupling map, e.g. {bad[0]}")
        if (
            circuit.num_qubits <= SIMULATE_MAX_QUBITS
            and len(_touched_qubits(result.circuit)) <= SIMULATE_MAX_QUBITS
            and not is_equivalent_after_routing(circuit, result)
        ):
            failures.append(f"{label}: routed circuit is not equivalent to its input")
    return failures


def check_stream(streams, coupling, source_gates):
    """Re-parse each stream's chunks: the counts must match its summary."""
    failures = []
    for stream in streams:
        summary = stream["summary"]
        label = f"stream/{stream['routing']}"
        circuit = qasm.loads(stream["text"])
        ops = circuit.count_ops()
        gates = sum(count for op, count in ops.items() if op != "barrier")
        expected = {
            "source_gates": (source_gates, summary["source_gates"]),
            "emitted_gates": (gates, summary["emitted_gates"]),
            "cx_count": (ops.get("cx", 0), summary["cx_count"]),
            "depth": (circuit.depth(), summary["depth"]),
        }
        for key, (seen, reported) in expected.items():
            if seen != reported:
                failures.append(f"{label}: {key} is {seen}, summary says {reported}")
        bad = coupling_violations(circuit, coupling)
        if bad:
            failures.append(f"{label}: {len(bad)} gates off the coupling map, e.g. {bad[0]}")
    return failures


def _content(payload):
    """The parts of a result payload that must not depend on where it was computed,
    in their JSON wire form."""
    keys = ("qasm", "initial_layout", "final_layout", "num_swaps", "schedule")
    return json.dumps({key: payload.get(key) for key in keys}, sort_keys=True)


def _replay(job_spec):
    """Compile one job spec in this process: its result payload and counter deltas."""
    before = COUNTERS.snapshot()
    payload = TranspileJob.from_dict(job_spec).run().to_dict()
    after = COUNTERS.snapshot()
    return payload, {name: value - before.get(name, 0) for name, value in after.items()}


def check_served(jobs, records):
    """Every cold result lies on its coupling map and was computed, not served from the
    cache; every resubmission was a cache hit equal to its cold original."""
    failures = []
    cold = {r["name"]: r for r in records if r["repeat"] == 0}
    for job in jobs:
        record = cold.get(job.name)
        if record is None:
            continue  # the failed submission is already counted
        if record["from_cache"]:
            failures.append(f"{job.name}: cold submission was served from the cache")
        bad = coupling_violations(qasm.loads(record["qasm"]), job.target().coupling_map)
        if bad:
            failures.append(f"{job.name}: {len(bad)} gates off the coupling map")
    for record in records:
        if record["repeat"] == 0:
            continue
        original = cold.get(record["name"])
        if not record["from_cache"]:
            failures.append(f"{record['name']}: resubmission was not served from the cache")
        if original is None or _content(record["payload"]) != _content(original["payload"]):
            failures.append(f"{record['name']}: cache hit differs from its cold original")
    return failures


def check_serve_replay(jobs, records):
    """Each cold served result equals a local ``transpile()`` of its job spec, byte for
    byte.

    Returns the failures and the summed counter deltas of the local replay, which are
    the served jobs' operation counts.
    """
    failures = []
    counters = {}
    cold = {r["name"]: r for r in records if r["repeat"] == 0}
    served = [job for job in jobs if job.name in cold]
    with ProcessPoolExecutor(REPLAY_PROCESSES, mp_context=get_context("spawn")) as pool:
        replays = pool.map(_replay, [job.to_dict() for job in served])
        for job, (local, delta) in zip(served, replays):
            if _content(cold[job.name]["payload"]) != _content(local):
                failures.append(f"{job.name}: served result differs from local transpile()")
            for name, value in delta.items():
                counters[name] = counters.get(name, 0) + value
    return failures, counters
