"""Repository benchmark: one workload, measured for a fixed time, with correctness checks.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

Runs repetitions of the workload (``rep.py``), each in a fresh interpreter, one after
another until ``--seconds`` of measuring have passed, then prints every metric by name
with its unit and, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}

The seed draws a few input sets (routing seeds, stream circuits, job orders); spreading a
run over several sets keeps one unlucky draw from moving the run's figures.

``--trace 0`` cycles through the sets and reports the end-to-end metrics of
``BENCHMARK.json``: timings are medians over the repetitions, output sizes are sums over
the sets.  ``--trace 1`` alternates untraced and traced repetitions of set 0 and reports
the per-layer metrics, the traced/untraced wall ratio, a self-time table per layer and a
Chrome trace under ``perfbench/out/``.

The first repetition of each set runs every correctness check on its outputs; for
``serve_mixed`` that includes replaying every cold job locally and comparing the results
byte for byte.  ``paper_grid`` and ``stream_qasm`` also repeat set 0, so the repeat is
held to the checked repetition: any difference between repetitions of one set in a
quantity that must be deterministic (the output digest among them) fails the run, as
does any failed operation or check.

The program receives only inputs generated from ``--seed``.  Claims are made on
``DEFAULT_SEED`` and must also hold on ``HELD_OUT_SEED``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

DEFAULT_SEED = 1
HELD_OUT_SEED = 2

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Per workload: input sets drawn from the seed and untraced repetitions at least.
#: paper_grid and stream_qasm run set 0 twice.  serve_mixed's check replays every cold
#: job locally, which costs about as much as a repetition, so it runs each set once.
PLANS = {
    "paper_grid": {"sets": 3, "min_reps": 4},
    "stream_qasm": {"sets": 3, "min_reps": 4},
    "serve_mixed": {"sets": 2, "min_reps": 2},
}

#: Per-repetition process limit; a repetition runs for ten to thirty seconds.
REP_TIMEOUT_S = 150

#: Program environment switches that would change what is measured.
PROGRAM_ENV = ("REPRO_TRACE", "REPRO_CACHE_DIR", "REPRO_NATIVE", "REPRO_ROUTING_PLUGINS")

#: Pass names reported as ``pass.<Name>.s``.
PASSES = (
    "Decompose", "SabreLayoutSelection", "SabreRouting", "NASSCRouting",
    "CommuteSingleQubitsThroughSwap", "SwapLowering", "UnitarySynthesis",
    "CommutativeCancellation", "Optimize1qGates", "EnsembleRouting", "ScheduleAnalysis",
)

#: Module layer of each span name the trace holds (``pass:`` spans map by pass name).
SPAN_LAYERS = {
    "bench.transpile": "core",
    "bench.transpile_stream": "core",
    "transpile": "core",
    "bench.client.submit": "client",
    "bench.client.poll": "client",
    "client.submit": "client",
    "bench.result_decode": "circuit",
    "server.job": "server",
    "server.queue_wait": "server",
}
PASS_LAYERS = {
    "NASSCRouting": "core",
    "CommuteSingleQubitsThroughSwap": "core",
    "ScheduleAnalysis": "schedule",
}


def run_rep(workload, seed, seed_set, traced, check, env):
    """One repetition in a fresh interpreter; returns its JSON report and wall time."""
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), workload, "--seed", str(seed),
           "--set", str(seed_set), "--root", ROOT]
    if traced:
        cmd.append("--trace")
    if check:
        cmd.append("--check")
    start = time.perf_counter()
    # Its own session, so a timeout also stops the server and pool it may have started.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} repetition exceeded {REP_TIMEOUT_S}s") from None
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} repetition exited {proc.returncode}:\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1]), elapsed


def percentile(values, q):
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def median_of(reps, getter):
    return statistics.median(getter(rep) for rep in reps)


def pooled(reps, key):
    return [value for rep in reps for value in rep["layers"].get(key, [])]


def pass_time(rep, name):
    return sum(
        seconds for pass_name, seconds in rep["layers"].get("pass_seconds", {}).items()
        if pass_name.split("[")[0] == name
    )


def first_of_each_set(reps):
    seen = {}
    for rep in reps:
        seen.setdefault(rep["seed_set"], rep)
    return list(seen.values())


def end_to_end(reps):
    """Metric values, and the timings before rescaling to the reference host speed."""
    values = {"setup_s": median_of(reps, lambda rep: rep["setup_s"])}
    raw = {}
    for name in ("circuits_per_s", "gates_per_s", "latency_s"):
        values[name] = median_of(reps, lambda rep: rep["e2e"][name])
        raw[name] = median_of(reps, lambda rep: rep["raw"][name])
    values["peak_rss_mb"] = median_of(reps, lambda rep: rep["peak_rss_mb"])
    sets = first_of_each_set(reps)
    values["cx_total"] = sum(rep["e2e"]["cx_total"] for rep in sets)
    values["depth_total"] = sum(rep["e2e"]["depth_total"] for rep in sets)
    values["nassc_cx_ratio"] = statistics.geometric_mean(
        rep["e2e"]["nassc_cx_ratio"] for rep in sets
    )
    return values, raw


def per_layer(reps):
    traced = [rep for rep in reps if rep["traced"]]
    untraced = [rep for rep in reps if not rep["traced"]]
    counters = next((rep["counters"] for rep in reps if rep["counters"]), {})
    values = {f"pass.{name}.s": median_of(traced, lambda rep: pass_time(rep, name))
              for name in PASSES}
    values["pass.invocations"] = traced[0]["layers"].get("pass_invocations", 0)
    values["router.swap_selections"] = counters.get("routing.swap_selections", 0)
    values["router.candidates_scored"] = counters.get("routing.swap_candidates_scored", 0)
    values["router.swaps_inserted"] = counters.get("routing.swaps_inserted", 0)
    estimates = counters.get("routing.nassc.estimates", 0)
    memo_hits = counters.get("routing.nassc.estimate_memo_hits", 0)
    values["nassc.estimates"] = estimates
    values["nassc.estimate_memo_hit_ratio"] = (
        memo_hits / (memo_hits + estimates) if estimates + memo_hits else 0.0
    )
    trials = counters.get("routing.ensemble.trials", 0)
    values["ensemble.trials"] = trials
    values["ensemble.pruned_ratio"] = (
        counters.get("routing.ensemble.pruned", 0) / trials if trials else 0.0
    )
    for name in ("qasm.stream_parse_s", "stream.route_s", "stream.sabre.gates_per_s",
                 "stream.nassc.gates_per_s", "cache.result.hit_ratio"):
        values[name] = median_of(traced, lambda rep: rep["layers"].get(name, 0.0))
    samples = {
        "client.submit_s": pooled(traced, "client.submit_s"),
        "client.poll_s": pooled(traced, "client.poll_s"),
        "qasm.result_decode_s": pooled(traced, "qasm.result_decode_s"),
        "server.overhead_p50_s": pooled(traced, "server.overhead_s"),
        "server.queue_wait_p50_s": pooled(traced, "server.queue_wait_s"),
        "server.run_p50_s": pooled(traced, "server.run_s"),
        "cached_job_p50_s": pooled(traced, "cached_latency_s"),
    }
    for name, sample in samples.items():
        values[name] = statistics.median(sample) if sample else 0.0
    cold = pooled(traced, "cold_latency_s")
    cached = samples["cached_job_p50_s"]
    values["cold_job_p50_s"] = statistics.median(cold) if cold else 0.0
    values["cold_job_p90_s"] = percentile(cold, 90) if cold else 0.0
    values["cached_job_p99_s"] = percentile(cached, 99) if cached else 0.0
    values["process.cpu_s"] = median_of(traced, lambda rep: rep["cpu_s"])
    # Repetitions alternate untraced, traced on identical inputs: compare each pair.
    values["obs.trace_overhead_ratio"] = statistics.median(
        t["work_s"] / u["work_s"] for u, t in zip(untraced, traced)
    )
    return values


def determinism_failures(reps):
    """Quantities that must repeat exactly across repetitions of one set, traced or not."""
    def fingerprint(rep):
        layers = rep["layers"]
        return {
            "digest": rep["digest"],
            "cx_total": rep["e2e"]["cx_total"],
            "depth_total": rep["e2e"]["depth_total"],
            "nassc_cx_ratio": rep["e2e"]["nassc_cx_ratio"],
            "pass_invocations": layers.get("pass_invocations"),
            "served_ensemble": (layers.get("served.ensemble.trials"),
                                layers.get("served.ensemble.pruned")),
        }

    failures = []
    first = {}
    for index, rep in enumerate(reps):
        if rep["seed_set"] not in first:
            first[rep["seed_set"]] = (index, rep)
            continue
        ref_index, ref = first[rep["seed_set"]]
        expected, seen = fingerprint(ref), fingerprint(rep)
        if ref["counters"] and rep["counters"]:
            expected["counters"], seen["counters"] = ref["counters"], rep["counters"]
        for key, value in seen.items():
            if value != expected[key]:
                failures.append(
                    f"benchmark broken: {key} differs between repetitions {ref_index} and "
                    f"{index} of input set {rep['seed_set']} ({expected[key]} vs {value})"
                )
    return failures


def layer_self_times(reps):
    """Seconds of self time per module layer over the first traced repetition's spans."""
    from repro.obs import self_times

    spans = next(rep["spans"] for rep in reps if rep["traced"])
    layers = {}
    for span, seconds in self_times(spans):
        name = span["name"]
        if name.startswith("routing.trial"):
            continue  # ensemble trials run in lockstep: their spans overlap each other
        if name.startswith("pass:"):
            layer = PASS_LAYERS.get(name[5:].split("[")[0], "transpiler")
        elif name.startswith("schedule:"):
            layer = "schedule"
        else:
            layer = SPAN_LAYERS.get(name, "other")
        parse = (span.get("attrs") or {}).get("parse_s")
        if parse:
            layers["circuit"] = layers.get("circuit", 0.0) + parse
            seconds -= parse
        layers[layer] = layers.get(layer, 0.0) + seconds
    return spans, dict(sorted(layers.items(), key=lambda item: -item[1]))


def load_metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["end_to_end"], spec["per_layer"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PLANS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source under {ROOT}/src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    end_to_end_specs, per_layer_specs = load_metric_specs()

    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_ENV}
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])

    plan = PLANS[args.workload]
    reps, failures = [], []
    attempted = 0
    measured = 0.0
    while True:
        index = len(reps)
        if args.trace:
            seed_set, traced = 0, index % 2 == 1
        else:
            seed_set, traced = index % plan["sets"], False
        check = index < plan["sets"] and (not args.trace or index == 0)
        try:
            rep, elapsed = run_rep(args.workload, args.seed, seed_set, traced, check, env)
        except (RuntimeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            failures.append(str(exc).splitlines()[0])
            attempted += 1
            break
        reps.append(rep)
        attempted += rep["attempted"]
        failures.extend(rep["failures"])
        measured += elapsed - rep.get("check_s", 0.0)
        print(f"[{args.workload}] repetition {index} set {seed_set}"
              f" ({'traced' if traced else 'untraced'}) {rep['wall_s']:.3f}s timed,"
              f" {elapsed:.1f}s total", file=sys.stderr)
        if args.trace:
            if traced and measured >= args.seconds:
                break
        elif len(reps) >= plan["min_reps"] and measured >= args.seconds:
            break
    if reps:
        failures.extend(determinism_failures(reps))

    metrics = {}
    if len(reps) >= 2 and not failures:
        if args.trace:
            values, raw, specs = per_layer(reps), {}, per_layer_specs
        else:
            (values, raw), specs = end_to_end(reps), end_to_end_specs
        for spec in specs:
            name, unit = spec["name"], spec["unit"]
            metrics[name] = {"value": values[name], "unit": unit}
            note = f"  (unscaled {raw[name]:.6g})" if name in raw else ""
            print(f"{name:38s} {values[name]:14.6g} {unit}{note}")
        untraced = sum(not rep["traced"] for rep in reps)
        print(f"{args.workload}: seed {args.seed}, {untraced} untraced and "
              f"{len(reps) - untraced} traced repetitions, {measured:.1f}s measured")
        if args.trace:
            from repro.obs import write_chrome_trace

            spans, layers = layer_self_times(reps)
            print("self time per layer (first traced repetition):")
            for layer, seconds in layers.items():
                print(f"  {layer:12s} {seconds:10.4f} s")
            os.makedirs(OUT_DIR, exist_ok=True)
            path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.trace.json")
            write_chrome_trace(path, spans)
            print(f"chrome trace: {os.path.relpath(path, ROOT)}")
    for failure in failures:
        print(f"FAILED: {failure}")
    correct = not failures and len(reps) >= 2
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, len(failures), 1),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
