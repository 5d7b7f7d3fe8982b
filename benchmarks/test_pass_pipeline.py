"""Transpile-pipeline wall-time benchmark and the tracked perf trajectory.

Runs the quick table suite over ``linear_25 + montreal × {none, sabre, nassc}`` at level
O1 / seed 0, attributing wall time to individual pass invocations through the
per-instance ``pass_timing_log`` the pass manager records, and emits the repo's perf
trajectory file ``BENCH_transpile.json`` (repo root): per device×benchmark×method
mean/median wall-time plus the per-pass breakdown.  The ``baseline`` block of that file
is frozen at the pre-vectorization measurement (PR 5) and preserved across re-runs as
the trajectory's anchor; ``current`` holds the latest full run.  The CI perf gate
(``benchmarks/check_perf_regression.py``) compares a fresh smoke run against the
committed ``current`` block — i.e. against the numbers recorded when the trajectory was
last updated — rescaled by the machine-speed calibration probe both reports embed, so a
slower CI runner does not trip the gate.

Only an explicit ``REPRO_BENCH_FULL=1`` run updates the committed trajectory.  A default
run (the tier-1 suite) writes its report to
``benchmarks/results/bench_transpile.json``, and smoke mode (``REPRO_BENCH_SMOKE=1``,
used by CI) shrinks the suite to one small benchmark and writes to
``benchmarks/results/bench_transpile_smoke.json``, so neither ever clobbers the ledger.

Repeat runs per case with ``REPRO_BENCH_REPEATS=N`` (default 1) for tighter
mean/median estimates.
"""

import gc
import json
import os
import statistics
import time

import pytest

from repro import Target, TranspileOptions, transpile
from repro.benchlib import table_benchmarks
from repro.hardware import evaluation_devices, linear_coupling_map, synthetic_calibration
from repro.schedule import schedule_circuit

from bench_config import QUICK_TABLE_NAMES, RESULTS_DIR, SEEDS, save_report

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("0", "", "false")
FULL = os.environ.get("REPRO_BENCH_FULL", "0") not in ("0", "", "false")
PIPELINE_NAMES = ["grover_n4"] if SMOKE else QUICK_TABLE_NAMES
PIPELINE_METHODS = ("none", "sabre", "nassc")
PIPELINE_SEED = SEEDS[0]
REPEATS = max(1, int(os.environ.get("REPRO_BENCH_REPEATS", "1")))
#: Ensemble size of the best-of-N comparison rows (0 disables them).
BEST_OF = int(os.environ.get("REPRO_BENCH_BEST_OF", "4"))
#: Methods that get a second, best-of-N timing row per device x benchmark.
BEST_OF_METHODS = ("sabre", "nassc") if BEST_OF > 1 else ()

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
TRAJECTORY_PATH = os.path.join(REPO_ROOT, "BENCH_transpile.json")
SMOKE_REPORT_PATH = os.path.join(RESULTS_DIR, "bench_transpile_smoke.json")
DEFAULT_REPORT_PATH = os.path.join(RESULTS_DIR, "bench_transpile.json")
#: Where this run's ``{"current": ...}`` report goes (only a full run updates the ledger).
REPORT_PATH = (
    SMOKE_REPORT_PATH if SMOKE else TRAJECTORY_PATH if FULL else DEFAULT_REPORT_PATH
)


def pipeline_devices():
    return evaluation_devices()


def machine_calibration_seconds():
    """Fixed CPU-bound probe approximating the transpile workload mix.

    Best-of-3 runtime of a deterministic blend of Python bytecode and small complex
    matmuls (the two things the transpiler actually spends time on).  Embedded in every
    report so ``check_perf_regression.py`` can rescale wall-times recorded on a
    different (faster/slower) machine before applying the regression threshold.
    """
    import numpy as np

    base = (np.arange(16, dtype=float).reshape(4, 4) / 16.0 + 0.5j * np.eye(4))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(150000):
            acc += (i % 7) * 0.5 - (i % 3)
        matrix = np.eye(4, dtype=complex)
        for _ in range(1500):
            matrix = (matrix @ base) / np.abs(matrix).max()
        best = min(best, time.perf_counter() - start)
    assert acc != 0.0 and matrix.shape == (4, 4)
    return best


@pytest.fixture(scope="module")
def pipeline_timings():
    """Transpile the suite once per device x benchmark x method, collecting timing logs."""
    cases = table_benchmarks(names=PIPELINE_NAMES)
    rows = []
    routed_outputs = []  # (row, routed circuit, calibration) for post-timing lowering

    def timed_row(target, calibration, device_name, case, circuit, routing, best_of):
        options = TranspileOptions(
            routing=routing, seed=PIPELINE_SEED, level="O1",
            best_of=best_of if best_of > 1 else None,
        )
        wall_times = []
        result = None
        for _ in range(REPEATS):
            start = time.perf_counter()
            result = transpile(circuit, target, options)
            wall_times.append(time.perf_counter() - start)
        label = routing if best_of <= 1 else f"{routing}_bo{best_of}"
        row = {
            "device": device_name,
            "benchmark": case.name,
            "routing": label,
            "base_routing": routing,
            "best_of": max(1, best_of),
            "repeats": REPEATS,
            "wall_time": statistics.mean(wall_times),
            "wall_time_mean": statistics.mean(wall_times),
            "wall_time_median": statistics.median(wall_times),
            "transpile_time": result.transpile_time,
            "cx_count": result.cx_count,
            "depth": result.depth,
            "num_swaps": result.num_swaps,
            "critical_path_ns": None,
            "pass_timing_log": [[name, t] for name, t in result.pass_timing_log],
            "pass_timings": result.pass_timings,
        }
        # Unrouted output ("none") may apply CNOTs to non-links, so its duration is
        # not a hardware quantity; it keeps critical_path_ns = null.
        if routing != "none":
            routed_outputs.append((row, result.circuit, calibration))
        return row

    for device_name, coupling in pipeline_devices().items():
        target = Target(coupling_map=coupling, name=device_name)
        calibration = synthetic_calibration(coupling)
        for case in cases:
            circuit = case.build()
            for routing in PIPELINE_METHODS:
                rows.append(timed_row(target, calibration, device_name, case, circuit, routing, 1))
            for routing in BEST_OF_METHODS:
                rows.append(
                    timed_row(target, calibration, device_name, case, circuit, routing, BEST_OF)
                )
    # Lower routed outputs to ASAP schedules only after every timed run has finished:
    # lowering allocates freely, and interleaving it with the timed loops would add GC
    # pauses to wall-times that feed the perf gate.
    for row, routed, calibration in routed_outputs:
        row["critical_path_ns"] = schedule_circuit(routed, calibration, "asap").duration
    return rows


@pytest.fixture(scope="module")
def duration_cost_summary():
    """Hops-cost vs ns-cost routing, compared on the ASAP critical path (nanoseconds).

    Routes every device x benchmark case twice with sabre at O1 / seed 0 on a
    calibrated target — once on the unit hop-count distance matrix, once on the
    duration-aware matrix — and compares the resulting schedule makespans.  This is the
    tracked evidence for the ``route_cost="ns"`` knob: scoring SWAP candidates by the
    nanoseconds they insert should shorten the critical path on a majority of the grid.
    """
    cases = table_benchmarks(names=PIPELINE_NAMES)
    comparisons = []
    for device_name, coupling in pipeline_devices().items():
        calibration = synthetic_calibration(coupling)
        target = Target(coupling_map=coupling, calibration=calibration, name=device_name)
        for case in cases:
            circuit = case.build()
            durations = {}
            for cost in ("hops", "ns"):
                result = transpile(circuit, target, TranspileOptions(
                    routing="sabre", seed=PIPELINE_SEED, level="O1",
                    route_cost=cost, schedule="asap",
                ))
                durations[cost] = result.schedule.duration
            comparisons.append({
                "device": device_name,
                "benchmark": case.name,
                "duration_hops_ns": durations["hops"],
                "duration_ns_cost_ns": durations["ns"],
                "delta_ns": durations["ns"] - durations["hops"],
            })
    return {
        "routing": "sabre",
        "seed": PIPELINE_SEED,
        "cases": len(comparisons),
        "better": sum(1 for c in comparisons if c["delta_ns"] < 0),
        "tied": sum(1 for c in comparisons if c["delta_ns"] == 0),
        "worse": sum(1 for c in comparisons if c["delta_ns"] > 0),
        "total_delta_ns": sum(c["delta_ns"] for c in comparisons),
        "comparisons": comparisons,
    }


def _best_of_summary(rows):
    """Pair each best-of-N row with its best_of=1 twin: 2q quality vs wall-time cost."""
    singles = {
        (row["device"], row["benchmark"], row["base_routing"]): row
        for row in rows
        if row.get("best_of", 1) == 1 and row["base_routing"] != "none"
    }
    comparisons = []
    for row in rows:
        if row.get("best_of", 1) <= 1:
            continue
        single = singles.get((row["device"], row["benchmark"], row["base_routing"]))
        if single is None:
            continue
        comparisons.append({
            "device": row["device"],
            "benchmark": row["benchmark"],
            "routing": row["base_routing"],
            "best_of": row["best_of"],
            "cx_single": single["cx_count"],
            "cx_best_of": row["cx_count"],
            "cx_delta": row["cx_count"] - single["cx_count"],
            "wall_single": single["wall_time_mean"],
            "wall_best_of": row["wall_time_mean"],
            "wall_ratio": (
                row["wall_time_mean"] / single["wall_time_mean"]
                if single["wall_time_mean"] > 0 else float("inf")
            ),
        })
    if not comparisons:
        return None
    ratios = [c["wall_ratio"] for c in comparisons]
    return {
        "best_of": comparisons[0]["best_of"],
        "cases": len(comparisons),
        "improved": sum(1 for c in comparisons if c["cx_delta"] < 0),
        "tied": sum(1 for c in comparisons if c["cx_delta"] == 0),
        "worse": sum(1 for c in comparisons if c["cx_delta"] > 0),
        # Primary cost statistic: total best-of wall-time over total single wall-time.
        # Per-case ratios are also recorded, but the sub-50ms cases make their mean a
        # noise amplifier (10ms of timer jitter moves a small case's ratio by ~0.5);
        # the aggregate weights every case by the compute it actually consumed.
        "aggregate_wall_ratio": (
            sum(c["wall_best_of"] for c in comparisons)
            / max(sum(c["wall_single"] for c in comparisons), 1e-12)
        ),
        "mean_wall_ratio": statistics.mean(ratios),
        "median_wall_ratio": statistics.median(ratios),
        "max_wall_ratio": max(ratios),
        "comparisons": comparisons,
    }


def _summarise(rows):
    per_pass = {}
    wall_times = []
    for row in rows:
        wall_times.append(row["wall_time_mean"])
        for name, elapsed in row["pass_timing_log"]:
            per_pass[name] = per_pass.get(name, 0.0) + elapsed
    return {
        "suite": "pipeline-grid",
        "smoke": SMOKE,
        "devices": list(pipeline_devices()),
        "benchmarks": PIPELINE_NAMES,
        "methods": list(PIPELINE_METHODS),
        "seed": PIPELINE_SEED,
        "repeats": REPEATS,
        "num_cases": len(rows),
        "best_of": BEST_OF,
        "best_of_summary": _best_of_summary(rows),
        "calibration_seconds": machine_calibration_seconds(),
        "mean_wall_time": statistics.mean(wall_times) if wall_times else 0.0,
        "median_wall_time": statistics.median(wall_times) if wall_times else 0.0,
        "total_wall_time": sum(wall_times),
        "per_pass_seconds": dict(sorted(per_pass.items(), key=lambda kv: -kv[1])),
        "rows": rows,
    }


@pytest.fixture(scope="module")
def pipeline_report(pipeline_timings, duration_cost_summary):
    """Aggregate the grid, update the tracked trajectory file, and persist reports."""
    summary = _summarise(pipeline_timings)
    summary["duration_cost_summary"] = duration_cost_summary

    if REPORT_PATH != TRAJECTORY_PATH:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(REPORT_PATH, "w", encoding="utf-8") as handle:
            json.dump({"current": summary}, handle, indent=2)
    else:
        trajectory = {}
        if os.path.exists(TRAJECTORY_PATH):
            with open(TRAJECTORY_PATH, encoding="utf-8") as handle:
                trajectory = json.load(handle)
        # The baseline block is frozen at the first full recording (the pre-vectorization
        # hot path of PR 5) and only ever written when absent.
        if "baseline" not in trajectory:
            trajectory["baseline"] = summary
        elif "calibration_seconds" not in trajectory["baseline"]:
            # The probe measures machine speed, not the hot path, so backfilling a
            # baseline recorded on this same machine with today's calibration is sound.
            trajectory["baseline"]["calibration_seconds"] = summary["calibration_seconds"]
        trajectory["current"] = summary
        trajectory["description"] = (
            "Transpile perf trajectory: 'baseline' is the frozen pre-vectorization "
            "measurement, 'current' the latest full run of "
            "benchmarks/test_pass_pipeline.py on this machine."
        )
        with open(TRAJECTORY_PATH, "w", encoding="utf-8") as handle:
            json.dump(trajectory, handle, indent=2)
            handle.write("\n")

    # Human-readable per-pass breakdown alongside the other benchmark reports.
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "pass_pipeline.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
    lines = [f"Pipeline grid wall time (seed {PIPELINE_SEED}, {summary['num_cases']} cases)"]
    lines.append(f"mean {summary['mean_wall_time']:.3f}s  median "
                 f"{summary['median_wall_time']:.3f}s  total {summary['total_wall_time']:.3f}s")
    for name, seconds in summary["per_pass_seconds"].items():
        lines.append(f"  {name:32s} {seconds:8.3f}s")
    best_of = summary["best_of_summary"]
    if best_of is not None:
        lines.append(
            f"best-of-{best_of['best_of']} vs single trial over {best_of['cases']} cases: "
            f"{best_of['improved']} improved / {best_of['tied']} tied / "
            f"{best_of['worse']} worse on routed CX; wall-time ratio aggregate "
            f"{best_of['aggregate_wall_ratio']:.2f}x, mean {best_of['mean_wall_ratio']:.2f}x, "
            f"max {best_of['max_wall_ratio']:.2f}x"
        )
    durations = summary["duration_cost_summary"]
    lines.append(
        f"ns-cost vs hops-cost routing over {durations['cases']} cases: "
        f"{durations['better']} shorter / {durations['tied']} tied / "
        f"{durations['worse']} longer on the ASAP critical path "
        f"(total delta {durations['total_delta_ns']} ns)"
    )
    text = "\n".join(lines)
    print("\n" + text)
    save_report("pass_pipeline.txt", text)
    return summary


def test_breakdown_written(pipeline_report):
    path = os.path.join(RESULTS_DIR, "pass_pipeline.json")
    assert os.path.exists(path)
    with open(path, encoding="utf-8") as handle:
        assert json.load(handle)["rows"]


def test_trajectory_file_has_baseline_and_current(pipeline_report):
    """This run's report has a ``current`` block, and the committed trajectory file
    always carries both blocks with comparable rows."""
    with open(REPORT_PATH, encoding="utf-8") as handle:
        assert "current" in json.load(handle)
    with open(TRAJECTORY_PATH, encoding="utf-8") as handle:
        trajectory = json.load(handle)
    for block in ("baseline", "current"):
        for row in trajectory[block]["rows"]:
            assert {"device", "benchmark", "routing", "wall_time_mean",
                    "wall_time_median"} <= set(row)


def test_best_of_rows_recorded(pipeline_report):
    """Every sabre/nassc case carries a paired best-of-N comparison in the summary."""
    if BEST_OF <= 1:
        pytest.skip("best-of rows disabled via REPRO_BENCH_BEST_OF")
    summary = pipeline_report["best_of_summary"]
    assert summary is not None
    expected = len(pipeline_devices()) * len(PIPELINE_NAMES) * len(BEST_OF_METHODS)
    assert summary["cases"] == expected
    assert summary["improved"] + summary["tied"] + summary["worse"] == summary["cases"]
    for comparison in summary["comparisons"]:
        assert comparison["cx_delta"] == comparison["cx_best_of"] - comparison["cx_single"]
        assert comparison["wall_ratio"] > 0


def test_best_of_improves_quality_within_budget(pipeline_report):
    """Acceptance: best-of-N beats single-trial CX on a strict majority of routed
    cases while staying within the amortized wall-time budget (full grid only —
    the smoke subset is too small for a majority to be meaningful)."""
    if BEST_OF <= 1:
        pytest.skip("best-of rows disabled via REPRO_BENCH_BEST_OF")
    summary = pipeline_report["best_of_summary"]
    assert summary is not None
    if summary["cases"] < 10:
        pytest.skip("too few cases for the majority criterion")
    assert summary["improved"] > summary["cases"] // 2, (
        f"best_of={summary['best_of']} improved only {summary['improved']} of "
        f"{summary['cases']} cases"
    )
    # Wall-time is only gated on runs with repeated measurements (CI's dedicated
    # bench jobs use REPRO_BENCH_REPEATS>=3): a single-repeat run inside a larger
    # pytest session measures session cache-warmth, not ensemble cost.
    if REPEATS >= 2:
        assert summary["aggregate_wall_ratio"] <= 2.5, (
            f"aggregate wall-time ratio {summary['aggregate_wall_ratio']:.2f}x exceeds "
            f"the 2.5x amortization budget for best_of={summary['best_of']}"
        )


def test_critical_path_recorded_per_case(pipeline_report):
    """Every routed row carries the schedule makespan; unrouted rows record null."""
    for row in pipeline_report["rows"]:
        if row["base_routing"] == "none":
            assert row["critical_path_ns"] is None
        else:
            assert row["critical_path_ns"] > 0


def test_ns_cost_routing_shortens_critical_path_on_majority(pipeline_report):
    """Acceptance: duration-aware (ns-cost) routing yields an ASAP critical path no
    longer than unit-cost routing's on a strict majority of the evaluation grid
    (full grid only — the smoke subset is too small for a majority to be meaningful)."""
    summary = pipeline_report["duration_cost_summary"]
    if summary["cases"] < 10:
        pytest.skip("too few cases for the majority criterion")
    not_longer = summary["better"] + summary["tied"]
    assert not_longer > summary["cases"] // 2, (
        f"ns-cost routing matched or beat hops-cost on only {not_longer} of "
        f"{summary['cases']} cases"
    )


def test_timing_log_covers_transpile_time():
    """The per-instance log accounts for (almost all of) each run's transpile time.

    The test compiles its own rows, one per case of the ledger's grid, with the garbage
    collector paused around each timed ``transpile()`` as ``timeit`` pauses it.  A gen-2
    collection (50-90 ms on a loaded host) landing in ``transpile()``'s unlogged code
    would otherwise break the 0.5 bound on a row whose passes take less than the pause,
    with no time missing from the log.  The ``pipeline_timings`` rows keep their
    timing conditions: they feed the ledger and the CI perf gates.
    """
    grid = [(routing, 1) for routing in PIPELINE_METHODS]
    grid += [(routing, BEST_OF) for routing in BEST_OF_METHODS]
    for device_name, coupling in pipeline_devices().items():
        target = Target(coupling_map=coupling, name=device_name)
        for case in table_benchmarks(names=PIPELINE_NAMES):
            circuit = case.build()
            for routing, best_of in grid:
                options = TranspileOptions(
                    routing=routing, seed=PIPELINE_SEED, level="O1",
                    best_of=best_of if best_of > 1 else None,
                )
                gc.collect()
                was_enabled = gc.isenabled()
                gc.disable()
                try:
                    result = transpile(circuit, target, options)
                finally:
                    if was_enabled:
                        gc.enable()
                logged = sum(t for _, t in result.pass_timing_log)
                row = (device_name, case.name, routing, best_of)
                assert logged <= result.transpile_time + 1e-6, row
                assert logged >= 0.5 * result.transpile_time, row


def test_commutation_analysis_not_recomputed_inside_cancellation(pipeline_timings):
    """Commutation analysis runs at most once per optimization-loop iteration.

    ``CommutativeCancellation`` appears once per loop iteration; the refactor guarantees it
    never rebuilds the analysis when a cached (incrementally patched) one is valid, which
    bounds the number of from-scratch analyses by the number of loop iterations.
    """
    from repro.circuit import DAGCircuit
    from repro.transpiler import PropertySet
    from repro.transpiler.passes import CommutationAnalysis, CommutativeCancellation
    from repro.benchlib import get_benchmark

    calls = []
    original = CommutationAnalysis.run

    def counting_run(self, dag, property_set):
        calls.append(1)
        return original(self, dag, property_set)

    CommutationAnalysis.run = counting_run
    try:
        dag = DAGCircuit.from_circuit(get_benchmark("grover_n4"))
        props = PropertySet()
        pass_ = CommutativeCancellation()
        pass_.run(dag, props)
        first = len(calls)
        # Second invocation on the (patched) property set: no from-scratch recomputation.
        pass_.run(dag, props)
        assert first == 1
        assert len(calls) == 1
    finally:
        CommutationAnalysis.run = original


def test_optimization_loop_iteration_bound(pipeline_timings):
    """The declared fixed-point loop never exceeds its iteration cap."""
    from repro.transpiler.builder import LEVEL_FIXED_POINT_ITERATIONS

    for row in pipeline_timings:
        if row["routing"] == "none":
            continue
        names = [name for name, _ in row["pass_timing_log"]]
        post_routing_us = names[names.index("SwapLowering"):].count("UnitarySynthesis")
        assert 1 <= post_routing_us <= LEVEL_FIXED_POINT_ITERATIONS["O1"]


@pytest.mark.benchmark(group="pass-pipeline")
@pytest.mark.parametrize("routing", ["sabre", "nassc"])
def test_pipeline_speed(benchmark, routing):
    """Headline number: one full transpile of the suite's smallest circuit."""
    coupling = linear_coupling_map(25)
    target = Target(coupling_map=coupling)
    circuit = table_benchmarks(names=[PIPELINE_NAMES[0]])[0].build()
    options = TranspileOptions(routing=routing, seed=PIPELINE_SEED)
    result = benchmark(lambda: transpile(circuit, target, options))
    assert result.cx_count > 0
