"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py WORKLOAD --seed N --set K --root DIR [--trace] [--check]

``run.py`` starts one process per repetition so that memo caches start cold every
time, as they do for a ``repro table`` user, and aggregates the reports.  A repetition:

1. builds input set ``K`` from ``--seed`` (set-up, timed from before the ``repro``
   imports);
2. runs the timed region, calling only the program's public functions;
3. with ``--check``, verifies every output outside the timed region;
4. prints one JSON object on stdout.

With ``--trace`` the timed region runs under ``repro.obs`` tracers: the benchmark wraps
each public call in its own ``bench.*`` span and collects the spans the program emits.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time includes the imports below

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import deque  # noqa: E402

import numpy as np  # noqa: E402

from repro import (  # noqa: E402
    ReproClient,
    Target,
    TranspileJob,
    TranspileOptions,
    TranspileResult,
    synthetic_calibration,
    transpile,
)
from repro.benchlib import get_benchmark  # noqa: E402
from repro.circuit import qasm  # noqa: E402
from repro.core.stream import transpile_stream  # noqa: E402
from repro.hardware import evaluation_devices  # noqa: E402
from repro.obs import COUNTERS, Tracer, use_tracer  # noqa: E402

import checks  # noqa: E402

#: The quick-table circuits of the paper's Tables I-IV.
GRID_CIRCUITS = ("grover_n4", "grover_n6", "vqe_n8", "bv_n19", "qft_n15", "qpe_n9", "adder_n10")
ROUTINGS = ("sabre", "nassc")

#: stream_qasm: source size and device.  12k gates is ~3 fills of the default 4096-gate
#: window, so the frontier retires thousands of gates per stream.
STREAM_QUBITS = 20
STREAM_GATES = 12000
STREAM_TOPOLOGY = "grid"

#: serve_mixed: cache-hit resubmissions sent after each cold job, client threads, and
#: server pool size.  Three resubmissions follow the default warm replay of
#: ``benchmarks/test_fleet_throughput.py`` (``warm_replays`` = 3), so the designed repeat
#: share is 3/4.  No observed traffic backs that share; it is an assumption.
REPEATS = 3
CLIENT_THREADS = 2
SERVER_WORKERS = 2

#: Program counters every workload reports (``repro.obs.COUNTERS`` names).
COUNTER_NAMES = (
    "routing.swap_selections",
    "routing.swap_candidates_scored",
    "routing.swaps_inserted",
    "routing.nassc.estimates",
    "routing.nassc.estimate_memo_hits",
    "routing.ensemble.trials",
    "routing.ensemble.pruned",
)

#: Seconds ``speed_probe`` takes on the reference host (2-vCPU Xeon, uncontended).
PROBE_REFERENCE_S = 0.015

_PROBE_MATRIX = np.linspace(0.0, 1.0, 16).reshape(4, 4)


def speed_probe():
    """Seconds a fixed interpreter and small-matrix workload takes (program-independent)."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(60000):
        key = i % 1021
        table[key] = table.get(key, 0) + (i ^ acc) % 13
        acc += key * 3 % 7
    m = _PROBE_MATRIX
    for _ in range(3000):
        m = np.tanh(m @ _PROBE_MATRIX)
    return time.perf_counter() - start


class HostSpeed:
    """Rescales timed work to the speed of the reference host.

    The benchmark host is shared, and its speed drifts by tens of percent within
    seconds.  Work is timed in short units with a speed probe after each (outside the
    timed region); a unit's seconds are multiplied by ``PROBE_REFERENCE_S`` over the
    median of the last three probes, which removes most of the drift while a single
    disturbed probe moves nothing.  Raw seconds are reported too.
    """

    def __init__(self):
        self.cpu_s = 0.0  # CPU seconds spent probing, to leave out of the work's
        self.recent = deque((self._probe() for _ in range(3)), maxlen=3)

    def _probe(self):
        start = time.process_time()
        seconds = speed_probe()
        self.cpu_s += time.process_time() - start
        return seconds

    def unit_factor(self):
        """Rescale factor for the unit that just ended."""
        self.recent.append(self._probe())
        return PROBE_REFERENCE_S / statistics.median(self.recent)


#: Seconds ``micro_probe`` takes on the reference host (2-vCPU Xeon, uncontended).
MICRO_PROBE_REFERENCE_S = 0.0005


def micro_probe():
    """Seconds a fixed half-millisecond interpreter loop takes (program-independent)."""
    start = time.perf_counter()
    acc = 0
    for i in range(8000):
        acc += i * 3 % 7
    return time.perf_counter() - start


class SpeedSampler:
    """Rescales a round that keeps every core busy to the speed of the reference host.

    Such a round has no gaps for ``HostSpeed`` probes, and probes before and after it
    miss the host's speed changes within it.  A thread instead runs ``micro_probe``
    every 50 ms through the round (about 1% of one core); the round's seconds are
    multiplied by ``MICRO_PROBE_REFERENCE_S`` over the mean sample.  On one seed over
    fourteen rounds this halved the spread of the round's wall time.
    """

    INTERVAL_S = 0.05

    def __init__(self):
        self.samples = []
        self.cpu_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        start = time.thread_time()
        while not self._stop.wait(self.INTERVAL_S):
            self.samples.append(micro_probe())
        self.cpu_s = time.thread_time() - start

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def factor(self):
        if not self.samples:
            return 1.0
        return MICRO_PROBE_REFERENCE_S / statistics.fmean(self.samples)


def counter_snapshot():
    snap = COUNTERS.snapshot()
    return {name: snap.get(name, 0) for name in COUNTER_NAMES}


def counter_delta(before):
    after = counter_snapshot()
    return {name: after[name] - before[name] for name in COUNTER_NAMES}


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def span(tracer, name, **attrs):
    return tracer.span(name, **attrs) if tracer is not None else contextlib.nullcontext()


def paired_ratio(by_pair):
    """Geometric mean of nassc CX / sabre CX over the pairs where both compiled."""
    logs = [np.log(p["nassc"] / p["sabre"]) for p in by_pair.values() if len(p) == 2]
    return float(np.exp(np.mean(logs))) if logs else 0.0


def digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def pass_seconds(logs):
    """Per-pass-name seconds and invocation count from ``(pass_timing_log, factor)``."""
    totals = {}
    count = 0
    for log, factor in logs:
        for name, elapsed in log:
            totals[name] = totals.get(name, 0.0) + elapsed * factor
            count += 1
    return totals, count


def timings(circuits, gates, work_s, latency_s):
    """Throughput over the summed seconds of the timed units, and the latency.

    Workloads pass the geometric mean latency over their calls or jobs.  A median is
    the latency of the one or two cases around it, which change with the seed's routing
    seeds and, for served jobs, with the host's speed at the moment they ran; the
    geometric mean covers every case, small ones as much as large ones.
    """
    total = sum(work_s)
    return {
        "circuits_per_s": circuits / total,
        "gates_per_s": gates / total,
        "latency_s": latency_s,
    }


def grid_pairs(seed, seed_set):
    """``(device, target, circuit name, routing seed)`` per device x circuit pair.

    Both routing methods of a pair share the routing seed, as in the paper's tables.
    """
    rng = np.random.default_rng([seed, seed_set])
    pairs = []
    for device, coupling in evaluation_devices().items():
        target = Target(coupling_map=coupling, name=device)
        for name in GRID_CIRCUITS:
            pairs.append((device, target, name, int(rng.integers(2**31))))
    return pairs


# ---------------------------------------------------------------------------
# paper_grid
# ---------------------------------------------------------------------------


def run_paper_grid(seed, seed_set, tracer, check):
    cases = []
    for device, target, name, routing_seed in grid_pairs(seed, seed_set):
        circuit = get_benchmark(name)
        for routing in ROUTINGS:
            options = TranspileOptions(routing=routing, seed=routing_seed, level="O1")
            cases.append((device, name, routing, circuit, target, options))
    setup_s = time.perf_counter() - T0
    speed = HostSpeed()

    before = counter_snapshot()
    cpu0 = cpu_seconds()
    results, raw, factors, failures = [], [], [], []
    start = time.perf_counter()
    with use_tracer(tracer):
        for device, name, routing, circuit, target, options in cases:
            t = time.perf_counter()
            try:
                with span(tracer, "bench.transpile", device=device, circuit=name, routing=routing):
                    result = transpile(circuit, target, options)
            except Exception as exc:  # a failed compile is counted, not fatal
                failures.append(f"{device}/{name}/{routing}: {type(exc).__name__}: {exc}")
                result = None
            raw.append(time.perf_counter() - t)
            factors.append(speed.unit_factor())
            results.append(result)
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0 - speed.cpu_s
    counters = counter_delta(before)
    rss = peak_rss_mb()

    ok = [r for r in results if r is not None]
    source_gates = sum(case[3].size() for case in cases)
    scaled = [seconds * factor for seconds, factor in zip(raw, factors)]
    by_pair = {}
    for case, result in zip(cases, results):
        if result is not None:
            by_pair.setdefault(case[:2], {})[case[2]] = result.cx_count
    passes, invocations = pass_seconds(
        (r.pass_timing_log, f) for r, f in zip(results, factors) if r is not None
    )
    out = {
        "setup_s": setup_s,
        "work_s": sum(scaled),
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "attempted": len(cases),
        "failures": failures,
        "e2e": dict(
            timings(len(cases), source_gates, scaled, statistics.geometric_mean(scaled)),
            cx_total=sum(r.cx_count for r in ok),
            depth_total=sum(r.depth for r in ok),
            nassc_cx_ratio=paired_ratio(by_pair),
        ),
        "raw": timings(len(cases), source_gates, raw, statistics.geometric_mean(raw)),
        "layers": {"pass_seconds": passes, "pass_invocations": invocations},
        "counters": counters,
        "digest": digest(qasm.dumps(r.circuit) for r in ok),
    }
    if check:
        t = time.perf_counter()
        out["failures"] += checks.check_paper_grid(cases, results)
        out["check_s"] = time.perf_counter() - t
    return out


# ---------------------------------------------------------------------------
# stream_qasm
# ---------------------------------------------------------------------------


class _TimedInstructions:
    """Wraps a QASM reader's instruction iterator, summing time spent pulling from it."""

    def __init__(self, reader):
        self._it = reader.instructions()
        self.seconds = 0.0

    def __iter__(self):
        return self

    def __next__(self):
        t = time.perf_counter()
        try:
            return next(self._it)
        finally:
            self.seconds += time.perf_counter() - t


#: Single-qubit gates of the streamed circuit.  Clifford only: with random rotation
#: angles, nassc's Weyl-coordinate estimate hits LAPACK eigenvalue non-convergence on
#: about one stream in thirty (``LinAlgError`` from ``weyl_coordinates``), and a benchmark
#: input must not fail.
STREAM_1Q_GATES = ("x", "y", "z", "h", "s", "sdg", "sx")


def stream_text(seed, seed_set):
    """A random Clifford circuit as OpenQASM text (half CNOTs), and its routing seed."""
    rng = np.random.default_rng([seed, seed_set])
    lines = qasm.header_lines(STREAM_QUBITS, 0)
    for _ in range(STREAM_GATES):
        if rng.random() < 0.5:
            a, b = rng.choice(STREAM_QUBITS, size=2, replace=False)
            lines.append(f"cx q[{a}],q[{b}];")
        else:
            name = STREAM_1Q_GATES[rng.integers(len(STREAM_1Q_GATES))]
            lines.append(f"{name} q[{rng.integers(STREAM_QUBITS)}];")
    return "\n".join(lines) + "\n", int(rng.integers(2**31))


#: A stream is timed in segments of this many chunks, each rescaled by its own probes
#: (the time spent probing is excluded from the stream's seconds).
CHUNKS_PER_PROBE = 4


def _drain_stream(chunks, started, speed):
    """Consume a ``transpile_stream`` generator.

    Returns the chunks, the summary, and ``(raw, rescaled)`` seconds of the first chunk
    and of the whole stream.
    """
    kept, first, first_factor, raw, scaled = [], None, None, 0.0, 0.0
    segment = started
    while True:
        try:
            chunk = next(chunks)
        except StopIteration as stop:
            summary = stop.value
            break
        if first is None:
            first = time.perf_counter() - started
        kept.append(chunk)
        if len(kept) % CHUNKS_PER_PROBE == 0:
            elapsed = time.perf_counter() - segment
            factor = speed.unit_factor()
            first_factor = first_factor or factor
            raw += elapsed
            scaled += elapsed * factor
            segment = time.perf_counter()
    elapsed = time.perf_counter() - segment
    factor = speed.unit_factor()
    first_factor = first_factor or factor
    return kept, summary, (first, first * first_factor), (raw + elapsed, scaled + elapsed * factor)


def run_stream_qasm(seed, seed_set, tracer, check):
    text, routing_seed = stream_text(seed, seed_set)
    target = Target.from_topology(STREAM_TOPOLOGY, 25)
    setup_s = time.perf_counter() - T0
    speed = HostSpeed()

    before = counter_snapshot()
    cpu0 = cpu_seconds()
    streams, failures = [], []
    start = time.perf_counter()
    with use_tracer(tracer):
        for routing in ROUTINGS:
            options = TranspileOptions(
                routing=routing, seed=routing_seed, level="O0", layout_iterations=0
            )
            t = time.perf_counter()
            reader = qasm.loads_stream(text)
            # Traced runs pull through a timing wrapper, so the reader's share is known.
            source = _TimedInstructions(reader) if tracer is not None else reader
            try:
                with span(tracer, "bench.transpile_stream", routing=routing) as sp:
                    kept, summary, first, seconds = _drain_stream(
                        transpile_stream(
                            source, target, options,
                            num_qubits=reader.num_qubits, num_clbits=reader.num_clbits,
                        ),
                        t, speed,
                    )
                    if sp is not None:
                        sp.set("parse_s", source.seconds)
            except Exception as exc:
                failures.append(f"{routing}: {type(exc).__name__}: {exc}")
                continue
            streams.append({
                "routing": routing,
                "seconds": seconds,
                "first_chunk_s": first,
                "parse_s": source.seconds if tracer is not None else None,
                "summary": summary,
                "text": "".join(kept),
            })
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0 - speed.cpu_s
    counters = counter_delta(before)
    rss = peak_rss_mb()

    cx = {s["routing"]: s["summary"]["cx_count"] for s in streams}
    gates = sum(s["summary"]["source_gates"] for s in streams)
    raw = [s["seconds"][0] for s in streams]
    scaled = [s["seconds"][1] for s in streams]
    layers = {}
    for s in streams:
        layers[f"stream.{s['routing']}.gates_per_s"] = (
            s["summary"]["source_gates"] / s["seconds"][1]
        )
    if tracer is not None:
        parse = sum(s["parse_s"] * s["seconds"][1] / s["seconds"][0] for s in streams)
        layers["qasm.stream_parse_s"] = parse
        layers["stream.route_s"] = sum(scaled) - parse
    out = {
        "setup_s": setup_s,
        "work_s": sum(scaled),
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "attempted": len(ROUTINGS),
        "failures": failures,
        "e2e": dict(
            timings(len(streams), gates, scaled,
                    statistics.geometric_mean(s["first_chunk_s"][1] for s in streams)),
            cx_total=sum(cx.values()),
            depth_total=sum(s["summary"]["depth"] for s in streams),
            nassc_cx_ratio=cx["nassc"] / cx["sabre"] if len(cx) == 2 else 0.0,
        ),
        "raw": timings(len(streams), gates, raw,
                       statistics.geometric_mean(s["first_chunk_s"][0] for s in streams)),
        "layers": layers,
        "counters": counters,
        "digest": digest(s["text"] for s in streams),
    }
    if check:
        t = time.perf_counter()
        out["failures"] += checks.check_stream(streams, target.coupling_map, STREAM_GATES)
        out["check_s"] = time.perf_counter() - t
    return out


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------


class Server:
    """``repro serve --port 0`` as a child process; reports its port and peak RSS."""

    def __init__(self, root):
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(SERVER_WORKERS)],
            cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        self.rusage = None
        self.lines = deque(maxlen=200)
        port = []
        ready = threading.Event()

        def drain():
            for line in self.proc.stderr:
                self.lines.append(line.rstrip())
                if not port and "listening on http://" in line:
                    address = line.split("listening on http://", 1)[1].split()[0]
                    port.append(int(address.rsplit(":", 1)[1]))
                    ready.set()
            ready.set()

        self._drain = threading.Thread(target=drain, daemon=True)
        self._drain.start()
        if not ready.wait(60) or not port:
            self.stop()
            raise RuntimeError("server did not start: " + " | ".join(self.lines))
        self.url = f"http://127.0.0.1:{port[0]}"

    def stop(self, timeout=30.0):
        """SIGTERM, wait (reaping the pool workers' usage with the server's), kill late."""
        if self.proc.returncode is None:
            self.proc.terminate()
            deadline = time.monotonic() + timeout
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if not pid and time.monotonic() > deadline:
                    self.proc.kill()
                    pid, status, usage = os.wait4(self.proc.pid, 0)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    self.rusage = usage
                    break
                time.sleep(0.05)
        self._drain.join(5)
        self.proc.stderr.close()


def serve_jobs(seed, seed_set):
    """The cold O3 job list (grid x routings on calibrated targets, shuffled by seed)
    and its total source gate count."""
    targets = {
        device: Target(
            coupling_map=coupling, calibration=synthetic_calibration(coupling), name=device
        )
        for device, coupling in evaluation_devices().items()
    }
    jobs, source_gates = [], 0
    for device, _, name, routing_seed in grid_pairs(seed, seed_set):
        circuit = get_benchmark(name)
        for routing in ROUTINGS:
            options = TranspileOptions(
                routing=routing, seed=routing_seed, level="O3", schedule="asap"
            )
            jobs.append(TranspileJob.from_circuit(
                circuit, targets[device], options, name=f"{device}/{name}/{routing}"
            ))
            source_gates += circuit.size()
    order = np.random.default_rng([seed, seed_set]).permutation(len(jobs))
    return [jobs[i] for i in order], source_gates


def _one_job(client, job, tracer):
    """Submit one job and wait for its result; returns the client-observed record."""
    t0 = time.perf_counter()
    with span(tracer, "bench.client.submit", job=job.name):
        remote = client.submit_job(job)
    t1 = time.perf_counter()
    with span(tracer, "bench.client.poll", job=job.name):
        status = client.job(remote.id, wait=60.0)
        while status["state"] in ("queued", "running"):
            status = client.job(remote.id, wait=60.0)
    t2 = time.perf_counter()
    if status["state"] != "done":
        raise RuntimeError(f"job {job.name} ended {status['state']}: {status.get('error')}")
    with span(tracer, "bench.result_decode", job=job.name):
        result = TranspileResult.from_dict(status["result"])
    t3 = time.perf_counter()
    return {
        "name": job.name,
        "id": remote.id,
        "from_cache": bool(status["from_cache"]),
        "latency_s": t3 - t0,
        "submit_s": t1 - t0,
        "poll_s": t2 - t1,
        "decode_s": t3 - t2,
        "queued_s": status["queued_seconds"],
        "running_s": status["running_seconds"],
        "qasm": status["result"]["qasm"],
        "payload": status["result"],
        "cx": result.cx_count,
        "depth": result.depth,
    }


def _drive(url, jobs, tracers):
    """Closed loop: each client thread takes the next cold job, waits for it, then
    resubmits its finished fingerprint ``REPEATS`` times.  Returns (records, failures)."""
    todo = deque(jobs)
    lock = threading.Lock()
    records, failures = [], []

    def client_loop(tracer):
        client = ReproClient(url, timeout=120.0)
        with use_tracer(tracer):
            while True:
                with lock:
                    if not todo:
                        return
                    job = todo.popleft()
                for repeat in range(1 + REPEATS):
                    try:
                        record = _one_job(client, job, tracer)
                    except Exception as exc:  # a failed job is counted, not fatal
                        with lock:
                            failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
                        break
                    record["repeat"] = repeat
                    with lock:
                        records.append(record)

    threads = [threading.Thread(target=client_loop, args=(t,)) for t in tracers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, failures


def run_serve_mixed(seed, seed_set, tracer, check, root):
    jobs, source_gates = serve_jobs(seed, seed_set)
    warmup = [
        TranspileJob.from_circuit(get_benchmark("grover_n4"), Target.from_topology("linear", 5),
                                  TranspileOptions(routing=routing, seed=0), name="warmup")
        for routing in ROUTINGS
    ]
    server = Server(root)
    try:
        client = ReproClient(server.url, timeout=120.0)
        deadline = time.monotonic() + 60
        while not client.healthz().get("ready"):
            if time.monotonic() > deadline:
                raise RuntimeError("server never became ready")
            time.sleep(0.05)
        # One untimed job per pool worker spawns the pool before timing starts.
        for remote in [client.submit_job(job) for job in warmup]:
            remote.result(timeout=120.0)
        setup_s = time.perf_counter() - T0

        tracers = [
            Tracer(trace_id=tracer.trace_id, process="client") if tracer is not None else None
            for _ in range(CLIENT_THREADS)
        ]
        cpu0 = cpu_seconds()
        with SpeedSampler() as speed:
            start = time.perf_counter()
            records, failures = _drive(server.url, jobs, tracers)
            wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0 - speed.cpu_s

        spans = []
        if tracer is not None:
            for own in tracers:
                spans.extend(own.span_dicts())
            for record in records:
                if record["repeat"] == 0:
                    spans.extend(client.trace(record["id"]).get("spans", []))
    finally:
        server.stop()
    usage = server.rusage

    cold = [r for r in records if r["repeat"] == 0]
    cached = [r for r in records if r["repeat"] > 0]
    by_pair = {}
    for r in cold:
        device, name, routing = r["name"].split("/")
        by_pair.setdefault((device, name), {})[routing] = r["cx"]
    passes, invocations = pass_seconds((r["payload"]["pass_timing_log"], 1.0) for r in cold)
    trials = [t for r in cold for t in (r["payload"].get("ensemble") or {}).get("trials", [])]
    layers = {
        "pass_seconds": passes,
        "pass_invocations": invocations,
        "cold_latency_s": [r["latency_s"] for r in cold],
        "cached_latency_s": [r["latency_s"] for r in cached],
        "client.submit_s": [r["submit_s"] for r in cached],
        "client.poll_s": [r["poll_s"] for r in cached],
        "qasm.result_decode_s": [r["decode_s"] for r in cached],
        "server.overhead_s": [r["latency_s"] - r["queued_s"] - r["running_s"] for r in cached],
        "server.queue_wait_s": [r["queued_s"] for r in cold],
        "server.run_s": [r["running_s"] for r in cold],
        "cache.result.hit_ratio": (
            sum(r["from_cache"] for r in records) / len(records) if records else 0.0
        ),
        "served.ensemble.trials": len(trials),
        "served.ensemble.pruned": sum(bool(t.get("pruned")) for t in trials),
    }
    latency = statistics.geometric_mean(layers["cold_latency_s"]) if cold else 0.0
    factor = speed.factor()
    out = {
        "setup_s": setup_s,
        "work_s": wall * factor,
        "wall_s": wall,
        "cpu_s": cpu + (usage.ru_utime + usage.ru_stime if usage is not None else 0.0),
        "peak_rss_mb": usage.ru_maxrss / 1024.0 if usage is not None else 0.0,
        "attempted": len(jobs) * (1 + REPEATS),
        "failures": failures,
        "e2e": dict(
            timings(len(records), source_gates, [wall * factor], latency * factor),
            cx_total=sum(r["cx"] for r in cold),
            depth_total=sum(r["depth"] for r in cold),
            nassc_cx_ratio=paired_ratio(by_pair),
        ),
        "raw": timings(len(records), source_gates, [wall], latency),
        "layers": layers,
        "counters": {},
        "digest": digest(r["qasm"] for r in sorted(cold, key=lambda r: r["name"])),
    }
    if tracer is not None:
        out["spans"] = spans
    t = time.perf_counter()
    out["failures"] += checks.check_served(jobs, records)
    if check:
        failures, counters = checks.check_serve_replay(jobs, records)
        out["failures"] += failures
        # The pool workers keep their own counters; the local replay that checks their
        # results recomputes the same jobs, so its counters are the served jobs' counts.
        out["counters"] = {name: counters.get(name, 0) for name in COUNTER_NAMES}
    out["check_s"] = time.perf_counter() - t
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("paper_grid", "stream_qasm", "serve_mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--set", type=int, default=0, dest="seed_set",
                        help="index of the input set drawn from the seed")
    parser.add_argument("--root", required=True, help="checkout root (holds src/)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()

    tracer = Tracer(process="local") if args.trace else None
    if args.workload == "serve_mixed":
        out = run_serve_mixed(args.seed, args.seed_set, tracer, args.check, args.root)
    else:
        run = run_paper_grid if args.workload == "paper_grid" else run_stream_qasm
        out = run(args.seed, args.seed_set, tracer, args.check)
        if tracer is not None:
            out["spans"] = tracer.span_dicts()
    out["seed_set"] = args.seed_set
    out["traced"] = args.trace
    print(json.dumps(out))


if __name__ == "__main__":
    main()
