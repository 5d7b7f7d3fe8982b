"""Command-line front end of the batch transpilation service (``python -m repro``).

Subcommands
-----------
* ``transpile`` — compile one OpenQASM 2.0 file for a device; emits routed QASM and an
  optional metrics JSON.
* ``table`` — regenerate a Tables I-IV style baseline-vs-treatment report through the
  batch executor (text, CSV and JSON outputs).
* ``ablation`` — regenerate a Figure 9 style optimization-combination panel.
* ``noise`` — regenerate the Figure 11 noise/success-rate experiment.
* ``schedule`` — lower a compiled circuit to a timed schedule and inspect the per-qubit
  timeline, critical path and idle windows.
* ``methods`` — list the registered routing methods, schedule modes and preset
  optimization levels.
* ``cache`` — inspect or clear an on-disk result cache directory (``stats`` emits JSON).
* ``serve`` — run the online transpilation server (:mod:`repro.server`).
* ``fleet`` — run a multi-node transpile fleet role (:mod:`repro.fleet`):
  ``coordinator`` (placement + proxy front door) or ``worker`` (one node).
* ``submit`` — compile a circuit remotely through a running server (:mod:`repro.client`).
* ``trace`` — pretty-print a trace file written by ``--trace`` / ``REPRO_TRACE``
  (span tree plus a self-time ranking).

Routing choices everywhere are derived from the routing-method registry, so third-party
methods registered via ``repro.transpiler.registry`` (or the ``REPRO_ROUTING_PLUGINS``
environment variable) are selectable by name.  Every experiment subcommand accepts
``--workers N`` (process-pool fan-out) and ``--cache-dir DIR`` (persistent
content-addressed result cache); a warm rerun of the same command performs zero new
transpile calls.  The default benchmark selection is the quick subset used by the
benchmark harness; pass ``--full`` for the paper's complete lists.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, List, Optional, Sequence

from .. import __version__
from ..benchlib.suite import benchmark_names, table_benchmarks
from ..circuit import qasm
from ..core.options import LEVEL_DESCRIPTIONS, OPTIMIZATION_LEVELS, ROUTE_COSTS, TranspileOptions
from ..exceptions import ReproError
from ..hardware.target import Target
from ..schedule.modes import SCHEDULE_MODES, available_schedule_modes
from ..transpiler.registry import available_routings, registered_methods
from .cache import ResultCache
from .executor import BatchTranspiler
from .jobs import JobOutcome, TranspileJob

#: Quick default benchmark selections (mirrors ``benchmarks/bench_config.py``).
DEFAULT_TABLE_NAMES = [
    "grover_n4", "grover_n6", "vqe_n8", "bv_n19", "qft_n15", "qpe_n9", "adder_n10",
]
DEFAULT_ABLATION_NAMES = ["grover_n4", "adder_n10"]

CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Batch transpilation service for the NASSC (HPCA'22) reproduction.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, workers: bool = True) -> None:
        if workers:
            p.add_argument("--workers", "-w", type=int, default=1,
                           help="worker processes for the batch executor (default: 1)")
        p.add_argument("--cache-dir", default=os.environ.get(CACHE_DIR_ENV),
                       help="on-disk result cache directory (env: REPRO_CACHE_DIR)")
        p.add_argument("--progress", action="store_true",
                       help="print per-job progress to stderr")

    def add_device(p: argparse.ArgumentParser, default: str = "montreal") -> None:
        p.add_argument("--device", "-d", default=default,
                       help="device topology: montreal | linear | grid | full "
                            f"(default: {default})")
        p.add_argument("--num-qubits", type=int, default=25,
                       help="device size for linear/grid/full topologies (default: 25)")

    def add_schedule_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--schedule", choices=available_schedule_modes(), default=None,
                       help="also lower the result to a timed schedule "
                            "(asap or alap; implies a calibrated device)")
        p.add_argument("--route-cost", choices=ROUTE_COSTS, default="hops",
                       help="SWAP cost model for routing: unit hops, or nanoseconds of "
                            "inserted SWAP time (default: hops)")

    routings = available_routings()
    routed = tuple(name for name in routings if name != "none")

    def add_compile_opts(p: argparse.ArgumentParser) -> None:
        """The one-circuit compile flags shared by ``transpile`` and ``submit``."""
        add_device(p)
        p.add_argument("--routing", "-r", default="nassc", choices=routings,
                       help="routing method (from the registry; default: nassc)")
        p.add_argument("--level", "-O", default="O1", choices=OPTIMIZATION_LEVELS,
                       help="preset optimization level (default: O1, the paper pipeline)")
        p.add_argument("--seed", type=int, default=0, help="routing seed (default: 0)")
        p.add_argument("--best-of", type=int, default=None, metavar="K",
                       help="route K independently-seeded ensemble trials and keep the best "
                            "(default: 1, or 4 at -O O3)")
        p.add_argument("--noise-aware", action="store_true",
                       help="use the HA distance matrix built from a synthetic calibration")
        add_schedule_opts(p)
        p.add_argument("--out", "-o", default="-",
                       help="routed QASM output path (default: stdout)")
        p.add_argument("--metrics", help="write a metrics JSON to this path ('-' for stdout)")
        p.add_argument("--trace", metavar="PATH",
                       help="trace the compile end to end and write a Chrome trace-event "
                            "JSON here")

    def add_server_opts(p: argparse.ArgumentParser, port: int) -> None:
        """The listener and execution flags shared by ``serve`` and ``fleet worker``."""
        p.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
        p.add_argument("--port", type=int, default=port,
                       help=f"bind port, 0 picks an ephemeral one (default: {port})")
        p.add_argument("--workers", "-w", type=int, default=None,
                       help="worker pool size (default: all cores, capped at 8)")
        p.add_argument("--concurrency", type=int, default=None,
                       help="jobs in flight at once (default: the worker count)")
        p.add_argument("--queue-bound", type=int, default=256,
                       help="admission-control bound on queued+running jobs (default: 256)")
        p.add_argument("--cache-dir", default=os.environ.get(CACHE_DIR_ENV),
                       help="on-disk result cache directory (env: REPRO_CACHE_DIR)")
        p.add_argument("--threads", action="store_true",
                       help="execute jobs on threads instead of a process pool")

    p = sub.add_parser("transpile", help="compile one OpenQASM 2.0 file for a device")
    p.add_argument("input", help="input OpenQASM 2.0 file ('-' for stdin)")
    add_compile_opts(p)
    p.add_argument("--stream", action="store_true",
                   help="stream the compile: chunked QASM ingest, windowed routing, "
                        "incremental routed-QASM emission in O(window) memory "
                        "(implies the -O O0 routing-only pipeline; bypasses the cache)")
    p.add_argument("--window-gates", type=int, default=None, metavar="N",
                   help="live routing window for --stream (default: 4096)")
    p.add_argument("--chunk-gates", type=int, default=None, metavar="N",
                   help="gates per emitted chunk for --stream (default: 1024)")
    add_common(p, workers=False)

    p = sub.add_parser(
        "schedule",
        help="lower a compiled circuit to a timed schedule and inspect it",
    )
    p.add_argument("input", help="input OpenQASM 2.0 file ('-' for stdin)")
    add_device(p)
    p.add_argument("--routing", "-r", default="nassc", choices=routed,
                   help="routing method used to compile first (default: nassc)")
    p.add_argument("--level", "-O", default="O1", choices=OPTIMIZATION_LEVELS,
                   help="preset optimization level (default: O1)")
    p.add_argument("--seed", type=int, default=0, help="routing seed (default: 0)")
    p.add_argument("--mode", choices=available_schedule_modes(), default="asap",
                   help="scheduling discipline (default: asap)")
    p.add_argument("--route-cost", choices=ROUTE_COSTS, default="hops",
                   help="SWAP cost model for the compile (default: hops)")
    p.add_argument("--json", action="store_true",
                   help="emit the schedule as JSON instead of the text views")
    add_common(p, workers=False)

    p = sub.add_parser("table", help="regenerate a Tables I-IV style report")
    add_device(p)
    p.add_argument("--routing", "-r", default="nassc", choices=routed,
                   help="treatment method compared against the baseline (default: nassc)")
    p.add_argument("--baseline", default="sabre", choices=routed,
                   help="baseline method (default: sabre)")
    p.add_argument("--seeds", type=int, nargs="+", default=[0],
                   help="routing seeds to average over (default: 0)")
    p.add_argument("--benchmarks", nargs="+", metavar="NAME",
                   help=f"benchmark subset (default: quick set; known: {', '.join(benchmark_names())})")
    p.add_argument("--full", action="store_true",
                   help="run the paper's complete benchmark list (slow)")
    p.add_argument("--depth", action="store_true", help="also print the depth (Table II) report")
    p.add_argument("--schedule", choices=available_schedule_modes(), default=None,
                   help="schedule every compile and add a critical-path duration report")
    p.add_argument("--csv", metavar="PATH", help="write the CNOT table as CSV")
    p.add_argument("--json", metavar="PATH", help="write the full result as JSON")
    add_common(p)

    p = sub.add_parser("ablation", help="regenerate a Figure 9 style ablation panel")
    add_device(p)
    p.add_argument("--baseline", default="sabre", choices=routed,
                   help="baseline method the combinations are compared against (default: sabre)")
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--benchmarks", nargs="+", metavar="NAME")
    p.add_argument("--full", action="store_true")
    p.add_argument("--json", metavar="PATH")
    add_common(p)

    p = sub.add_parser("noise", help="regenerate the Figure 11 noise experiment")
    p.add_argument("--methods", nargs="+", default=["sabre", "nassc"], choices=routed,
                   metavar="METHOD",
                   help="base routing methods, each run plain and noise-aware "
                        f"(choices: {', '.join(routed)}; default: sabre nassc)")
    p.add_argument("--shots", type=int, default=2048)
    p.add_argument("--realizations", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--benchmarks", nargs="+", metavar="NAME")
    p.add_argument("--json", metavar="PATH")
    add_common(p)

    sub.add_parser(
        "methods",
        help="list registered routing methods and preset optimization levels",
    )

    p = sub.add_parser("cache", help="inspect or clear an on-disk result cache")
    p.add_argument("action", choices=("stats", "clear"))
    p.add_argument("--cache-dir", default=os.environ.get(CACHE_DIR_ENV), required=False)

    p = sub.add_parser("serve", help="run the online transpilation server")
    add_server_opts(p, port=8000)

    p = sub.add_parser("fleet", help="run a multi-node transpile fleet role")
    fleet_sub = p.add_subparsers(dest="fleet_role", required=True, metavar="ROLE")

    fc = fleet_sub.add_parser(
        "coordinator", help="run the fleet coordinator (placement + proxy front door)"
    )
    fc.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    fc.add_argument("--port", type=int, default=8100,
                    help="bind port, 0 picks an ephemeral one (default: 8100)")
    fc.add_argument("--replicas", type=int, default=2,
                    help="ring owners per fingerprint for placement/peer fetch (default: 2)")
    fc.add_argument("--heartbeat-interval", type=float, default=2.0,
                    help="heartbeat cadence asked of worker nodes, seconds (default: 2.0)")
    fc.add_argument("--heartbeat-ttl", type=float, default=None,
                    help="heartbeat staleness before a node is dead "
                         "(default: 4x the interval)")

    fw = fleet_sub.add_parser(
        "worker", help="run one fleet worker node (a repro server with membership)"
    )
    fw.add_argument("--coordinator", required=True, metavar="URL",
                    help="coordinator base URL, e.g. http://127.0.0.1:8100")
    add_server_opts(fw, port=0)
    fw.add_argument("--node-id", default=None,
                    help="stable node identity on the hash ring (default: random)")
    fw.add_argument("--peer-replicas", type=int, default=2,
                    help="ring owners consulted on a local cache miss (default: 2)")

    p = sub.add_parser("submit", help="compile a circuit through a running server")
    p.add_argument("input", help="input OpenQASM 2.0 file ('-' for stdin)")
    p.add_argument("--url", default=os.environ.get("REPRO_SERVER_URL", "http://127.0.0.1:8000"),
                   help="server base URL (env: REPRO_SERVER_URL; default: http://127.0.0.1:8000)")
    add_compile_opts(p)
    p.add_argument("--priority", type=int, default=0,
                   help="scheduling priority, higher runs first (default: 0)")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="seconds to wait for the result (default: 300)")
    p.add_argument("--events", action="store_true",
                   help="stream job state transitions to stderr while waiting")

    p = sub.add_parser("trace", help="inspect a trace file written by --trace / REPRO_TRACE")
    p.add_argument("file", help="Chrome trace JSON, {'spans': [...]} JSON, or JSONL file")
    p.add_argument("--top", type=int, default=5,
                   help="how many spans to list in the self-time ranking (default: 5)")

    return parser


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _make_executor(args: argparse.Namespace) -> BatchTranspiler:
    cache = ResultCache(directory=args.cache_dir) if args.cache_dir else ResultCache()
    workers = getattr(args, "workers", 1)
    return BatchTranspiler(max_workers=workers, cache=cache)


def _progress_callback(args: argparse.Namespace):
    if not getattr(args, "progress", False):
        return None

    def callback(done: int, total: int, outcome: JobOutcome) -> None:
        state = "cached" if outcome.from_cache else ("ok" if outcome.ok else "ERROR")
        label = outcome.job.name or outcome.fingerprint[:12]
        print(f"[{done}/{total}] {label}: {state}", file=sys.stderr)

    return callback


def _print_stats(executor: BatchTranspiler) -> None:
    stats = executor.stats
    print(
        f"cache: {stats.hits} memory hits, {stats.disk_hits} disk hits, "
        f"{stats.misses} misses ({stats.hit_rate:.0%} hit rate)",
        file=sys.stderr,
    )


def _selected_cases(args: argparse.Namespace, default_names: List[str]):
    if args.benchmarks:
        unknown = set(args.benchmarks) - set(benchmark_names())
        if unknown:
            raise SystemExit(f"unknown benchmarks: {', '.join(sorted(unknown))}")
        return table_benchmarks(names=list(args.benchmarks))
    if args.full:
        return table_benchmarks()
    return table_benchmarks(names=default_names)


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        return
    if path == "-":
        print(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text if text.endswith("\n") else text + "\n")


def _load_input_circuit(args: argparse.Namespace):
    """Read the QASM input of `transpile`/`submit` ('-' = stdin, else a file path)."""
    if args.input == "-":
        return qasm.loads(sys.stdin.read())
    circuit = qasm.load(args.input)
    circuit.name = os.path.splitext(os.path.basename(args.input))[0]
    return circuit


def _target_and_options(args: argparse.Namespace):
    """Build the Target/Options pair shared by the local and remote compile commands."""
    schedule = getattr(args, "schedule", None) or getattr(args, "mode", None)
    route_cost = getattr(args, "route_cost", "hops")
    noise_aware = getattr(args, "noise_aware", False)
    # Scheduling and nanosecond routing both need gate durations, so they imply the
    # same synthetic calibration the noise-aware path attaches.
    calibrated = noise_aware or schedule is not None or route_cost == "ns"
    if args.routing == "none":
        target = Target()
    else:
        target = Target.from_topology(args.device, args.num_qubits, calibrated=calibrated)
    options = TranspileOptions(
        routing=args.routing,
        level=args.level,
        seed=args.seed,
        noise_aware=noise_aware,
        best_of=getattr(args, "best_of", None),
        schedule=schedule,
        route_cost=route_cost,
    )
    return target, options


def _emit_routed_qasm(args: argparse.Namespace, result) -> None:
    routed_qasm = qasm.dumps(result.circuit)
    if args.out == "-":
        sys.stdout.write(routed_qasm)
    else:
        _write_text(args.out, routed_qasm)


def _emit_metrics_json(args: argparse.Namespace, result, extra: dict) -> None:
    if not args.metrics:
        return
    payload = dict(extra)
    payload.update({
        "routing": result.routing,
        "level": result.level,
        "cx_count": result.cx_count,
        "depth": result.depth,
        "num_swaps": result.num_swaps,
        "transpile_time": result.transpile_time,
        "count_ops": result.count_ops(),
    })
    if result.schedule is not None:
        payload["schedule_mode"] = result.schedule.mode
        payload["schedule_duration_ns"] = result.schedule.duration
        payload["schedule_idle_ns"] = result.schedule.total_idle
    text = json.dumps(payload, indent=2)
    if args.metrics == "-":
        print(text)
    else:
        _write_text(args.metrics, text)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _export_cli_trace(path: str, spans: List[dict]) -> None:
    from ..obs import COUNTERS, write_chrome_trace

    write_chrome_trace(path, spans, counters=COUNTERS.snapshot())
    print(f"trace: {len(spans)} spans -> {path}", file=sys.stderr)


def _cmd_transpile_stream(args: argparse.Namespace) -> int:
    import dataclasses
    from contextlib import ExitStack

    from ..core.stream import DEFAULT_CHUNK_GATES, DEFAULT_WINDOW_GATES, stream_to, transpile_stream

    if args.level not in ("O0", "O1"):
        print("error: --stream supports only the O0 routing pipeline (got "
              f"-O {args.level}); drop the level flag or pass -O O0", file=sys.stderr)
        return 2
    target, options = _target_and_options(args)
    options = dataclasses.replace(options, level="O0", layout_iterations=0)
    if args.input == "-":
        reader = qasm.QASMStreamReader(sys.stdin, name="stdin")
    else:
        reader = qasm.load_stream(args.input)
    chunks = transpile_stream(
        reader,
        target,
        options=options,
        window_gates=args.window_gates or DEFAULT_WINDOW_GATES,
        chunk_gates=args.chunk_gates or DEFAULT_CHUNK_GATES,
    )
    with ExitStack() as stack:
        if args.out == "-":
            sink = sys.stdout
        else:
            sink = stack.enter_context(open(args.out, "w", encoding="utf-8"))
        summary = stream_to(chunks, sink)
        sink.flush()
    if args.metrics:
        text = json.dumps(summary, indent=2)
        if args.metrics == "-":
            print(text)
        else:
            _write_text(args.metrics, text)
    return 0


def _cmd_transpile(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from ..obs import Tracer, use_tracer

    if args.stream:
        return _cmd_transpile_stream(args)
    circuit = _load_input_circuit(args)
    target, options = _target_and_options(args)
    job = TranspileJob.from_circuit(circuit, target, options)
    executor = _make_executor(args)
    # ``transpile`` is single-worker and runs jobs in-process, so an ambient tracer
    # installed here is the one the pipeline's spans land on.  Export from the tracer
    # itself: the worker entry point strips span trees out of result payloads so they
    # never enter the content-addressed cache.
    tracer = Tracer(process="cli") if args.trace else None
    with use_tracer(tracer) if tracer is not None else nullcontext():
        outcome = executor.run([job], progress=_progress_callback(args))[0]
    if not outcome.ok:
        print(f"error: {outcome.error}", file=sys.stderr)
        return 1

    result = outcome.result
    if tracer is not None:
        if outcome.from_cache and not tracer.finished:
            print("trace: result served from cache, no passes ran", file=sys.stderr)
        _export_cli_trace(args.trace, tracer.span_dicts())
    _emit_routed_qasm(args, result)
    _emit_metrics_json(args, result, {
        "fingerprint": outcome.fingerprint,
        "from_cache": outcome.from_cache,
        "device": target.coupling_map.name if target.coupling_map else None,
    })
    _print_stats(executor)
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    from ..schedule import decoherence_exposure, format_critical_path, format_idle_summary, format_timeline

    circuit = _load_input_circuit(args)
    target, options = _target_and_options(args)
    job = TranspileJob.from_circuit(circuit, target, options)
    executor = _make_executor(args)
    outcome = executor.run([job], progress=_progress_callback(args))[0]
    if not outcome.ok:
        print(f"error: {outcome.error}", file=sys.stderr)
        return 1
    schedule = outcome.result.schedule
    assert schedule is not None  # options.schedule was set, so the stage ran
    if args.json:
        print(json.dumps(schedule.to_dict(), indent=2))
        return 0
    print(format_timeline(schedule))
    print()
    print(format_critical_path(schedule))
    print()
    report = decoherence_exposure(schedule, target.calibration) if target.calibration else None
    print(format_idle_summary(schedule, report))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from ..evaluation import (
        cnot_table_to_csv,
        format_cnot_table,
        format_depth_table,
        format_duration_table,
        run_table_experiment,
        table_result_to_json,
    )

    executor = _make_executor(args)
    result = run_table_experiment(
        args.device,
        cases=_selected_cases(args, DEFAULT_TABLE_NAMES),
        seeds=tuple(args.seeds),
        num_device_qubits=args.num_qubits,
        baseline=args.baseline,
        routing=args.routing,
        executor=executor,
        progress=_progress_callback(args),
        schedule=args.schedule,
    )
    print(format_cnot_table(result))
    if args.depth:
        print()
        print(format_depth_table(result))
    if args.schedule:
        print()
        print(format_duration_table(result))
    if args.csv:
        _write_text(args.csv, cnot_table_to_csv(result))
    if args.json:
        _write_text(args.json, table_result_to_json(result))
    _print_stats(executor)
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from ..evaluation import ablation_rows_to_dict, format_ablation, run_optimization_ablation

    executor = _make_executor(args)
    rows = run_optimization_ablation(
        args.device,
        cases=_selected_cases(args, DEFAULT_ABLATION_NAMES),
        seeds=tuple(args.seeds),
        num_device_qubits=args.num_qubits,
        baseline=args.baseline,
        executor=executor,
        progress=_progress_callback(args),
    )
    print(format_ablation(rows, args.device))
    if args.json:
        _write_text(args.json, json.dumps(ablation_rows_to_dict(rows), indent=2))
    _print_stats(executor)
    return 0


def _cmd_noise(args: argparse.Namespace) -> int:
    from ..benchlib.suite import noise_benchmarks
    from ..evaluation import format_noise_experiment, noise_rows_to_dict, run_noise_experiment

    cases = noise_benchmarks()
    if args.benchmarks:
        wanted = set(args.benchmarks)
        cases = [case for case in cases if case.name in wanted]
        if not cases:
            known = ", ".join(case.name for case in noise_benchmarks())
            raise SystemExit(f"no matching noise benchmarks; known: {known}")

    executor = _make_executor(args)
    rows = run_noise_experiment(
        cases=cases,
        shots=args.shots,
        seed=args.seed,
        realizations=args.realizations,
        methods=tuple(args.methods),
        executor=executor,
        progress=_progress_callback(args),
    )
    print(format_noise_experiment(rows))
    if args.json:
        _write_text(args.json, json.dumps(noise_rows_to_dict(rows), indent=2))
    _print_stats(executor)
    return 0


def _cmd_methods(args: argparse.Namespace) -> int:
    print("routing methods:")
    for method in registered_methods():
        origin = "builtin" if method.builtin else "plugin"
        best_of = "best-of-N" if method.supports_best_of else "single"
        print(f"  {method.name:12s} [{origin}] [{best_of}]  {method.description}")
    print()
    print("schedule modes:")
    for mode, description in SCHEDULE_MODES.items():
        print(f"  {mode:12s} {description}")
    print()
    print("optimization levels:")
    for level in OPTIMIZATION_LEVELS:
        print(f"  {level:12s} {LEVEL_DESCRIPTIONS[level]}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    if not args.cache_dir:
        print("error: --cache-dir (or REPRO_CACHE_DIR) is required", file=sys.stderr)
        return 1
    cache = ResultCache(directory=args.cache_dir)
    if args.action == "stats":
        payload = {
            "directory": args.cache_dir,
            "exists": os.path.isdir(args.cache_dir),
            "disk_entries": cache.disk_entries(),
            "stats": cache.stats.to_dict(),
        }
        print(json.dumps(payload, indent=2))
        return 0
    removed = cache.clear()
    print(f"removed {removed} cached results from {args.cache_dir}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..server import ReproServer

    server = ReproServer(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        queue_bound=args.queue_bound,
        concurrency=args.concurrency,
        max_workers=args.workers,
        use_processes=not args.threads,
    )
    # The pool kind and size are settled only once start() has built the pool.
    return _serve_until_signalled(server, lambda host, port: (
        f"repro server listening on http://{host}:{port} "
        f"(pool={server.runner.pool_kind} x{server.runner.max_workers}, "
        f"concurrency={server.runner.concurrency}, queue bound={args.queue_bound}, "
        f"cache dir={args.cache_dir or 'memory only'})"
    ))


def _serve_until_signalled(server, banner: Callable[[str, int], str]) -> int:
    """Run any AsyncHTTPServer until SIGINT/SIGTERM, printing ``banner(host, port)`` of
    the bound address once it is listening."""
    import asyncio
    import signal

    async def _main() -> None:
        host, port = await server.start()
        print(banner(host, port), file=sys.stderr)
        loop = asyncio.get_running_loop()

        def _shutdown() -> None:
            print("shutting down (draining in-flight jobs)...", file=sys.stderr)
            loop.create_task(server.stop())

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, _shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover - non-Unix
                pass
        await server.serve_forever()

    asyncio.run(_main())
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    if args.fleet_role == "coordinator":
        from ..fleet import FleetCoordinator

        coordinator = FleetCoordinator(
            host=args.host,
            port=args.port,
            replicas=args.replicas,
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_ttl=args.heartbeat_ttl,
        )
        return _serve_until_signalled(coordinator, lambda host, port: (
            f"repro fleet coordinator listening on http://{host}:{port} "
            f"(replicas={args.replicas}, heartbeat={args.heartbeat_interval}s)"
        ))

    from ..fleet import FleetWorkerServer

    worker = FleetWorkerServer(
        args.coordinator,
        host=args.host,
        port=args.port,
        node_id=args.node_id,
        peer_replicas=args.peer_replicas,
        cache_dir=args.cache_dir,
        queue_bound=args.queue_bound,
        concurrency=args.concurrency,
        max_workers=args.workers,
        use_processes=not args.threads,
    )
    return _serve_until_signalled(worker, lambda host, port: (
        f"repro fleet worker {worker.node_id} listening on http://{host}:{port} "
        f"(coordinator={worker.coordinator_url})"
    ))


def _cmd_submit(args: argparse.Namespace) -> int:
    import threading
    from contextlib import ExitStack

    from ..client import JobCancelled, JobFailed, ReproClient, ServerError
    from ..obs import Tracer, use_tracer

    circuit = _load_input_circuit(args)
    target, options = _target_and_options(args)
    client = ReproClient(args.url, timeout=max(60.0, args.timeout))
    stack = ExitStack()
    if args.trace:
        # An ambient tracer makes the client send a ``traceparent`` header; the result
        # then carries the merged client -> server -> worker -> per-pass span tree.
        stack.enter_context(use_tracer(Tracer(process="client")))
    try:
        with stack:
            handle = client.submit(circuit, target, options, priority=args.priority)
        if args.events:
            def _stream() -> None:
                try:
                    for event in handle.events():
                        print(f"[{handle.id}] {event['state']}", file=sys.stderr)
                except ServerError:  # pragma: no cover - stream is best-effort
                    pass

            watcher = threading.Thread(target=_stream, daemon=True)
            watcher.start()
        result = handle.result(timeout=args.timeout)
    except (JobFailed, JobCancelled) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if getattr(exc, "traceback", ""):
            print(exc.traceback, file=sys.stderr)
        return 1
    except ServerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _emit_routed_qasm(args, result)
    if args.trace:
        _export_cli_trace(args.trace, result.trace)
    if args.metrics:
        try:
            from_cache = handle.status().get("from_cache", False)
        except ServerError:
            # The record may have been evicted (or the server restarted) after the
            # result arrived; the metrics are still worth emitting.
            from_cache = None
        _emit_metrics_json(args, result, {
            "job_id": handle.id,
            "fingerprint": handle.fingerprint,
            "from_cache": from_cache,
        })
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from ..obs import format_tree, load_trace_file, top_spans

    spans = load_trace_file(args.file)
    if not spans:
        print("error: no spans found in file", file=sys.stderr)
        return 1
    print(format_tree(spans))
    ranked = top_spans(spans, n=args.top)
    if ranked:
        print(f"top {len(ranked)} spans by self-time:")
        for span, self_time in ranked:
            print(f"  {self_time * 1000.0:9.3f} ms  {span.get('name', '?')}")
    return 0


_COMMANDS = {
    "transpile": _cmd_transpile,
    "schedule": _cmd_schedule,
    "trace": _cmd_trace,
    "table": _cmd_table,
    "ablation": _cmd_ablation,
    "noise": _cmd_noise,
    "methods": _cmd_methods,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "fleet": _cmd_fleet,
    "submit": _cmd_submit,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro`` and the ``repro`` console script."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, ValueError, OSError) as exc:
        # Expected operational failures (bad device name, unreadable/malformed input
        # file, ...) get a clean one-line diagnostic instead of a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
