"""Experiment runners that regenerate the paper's tables and figures.

Each runner mirrors one artifact of the paper's evaluation (Sec. VI):

* :func:`run_table_experiment` — Tables I/II (``ibmq_montreal``), III (linear), IV (grid):
  added CNOTs, circuit depth and transpile time for Qiskit+SABRE vs Qiskit+NASSC.
* :func:`run_optimization_ablation` — Figure 9: CNOT reduction of the best of the 8
  optimization-combination subsets vs enabling all three optimizations.
* :func:`run_noise_experiment` — Figure 11: added CNOTs and success rate of SABRE, NASSC,
  SABRE+HA and NASSC+HA under the (synthetic) ``ibmq_montreal`` noise model.

Every runner submits its transpile calls as :class:`~repro.service.jobs.TranspileJob`
batches through a :class:`~repro.service.executor.BatchTranspiler`, so regeneration gets
worker-pool parallelism and content-addressed result caching for free.  Pass ``workers=N``
(or a shared ``executor``) to fan out; the default stays serial and bit-identical to the
historical in-process behaviour because every job carries its own seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..benchlib.suite import BenchmarkCase, noise_benchmarks, table_benchmarks
from ..circuit import qasm
from ..core.nassc import NASSCConfig
from ..core.options import TranspileOptions
from ..core.pipeline import TranspileResult, optimize_logical
from ..hardware.calibration import (
    DeviceCalibration,
    fake_montreal_calibration,
    synthetic_calibration,
)
from ..hardware.coupling import CouplingMap
from ..hardware.target import Target
from ..hardware.topologies import get_topology
from ..service.executor import BatchTranspiler, ProgressCallback
from ..service.jobs import TranspileJob
from ..simulator.noise import NoiseModel, NoisySimulator
from .metrics import geometric_mean_reduction, percentage_change


def _resolve_executor(
    executor: Optional[BatchTranspiler], workers: Optional[int]
) -> BatchTranspiler:
    """The executor experiments run on: the caller's, or a fresh one with ``workers``."""
    if executor is not None:
        return executor
    return BatchTranspiler(max_workers=workers if workers is not None else 1)


# ---------------------------------------------------------------------------
# Tables I-IV
# ---------------------------------------------------------------------------

@dataclass
class ComparisonRow:
    """One benchmark row comparing Qiskit+SABRE with Qiskit+NASSC."""

    name: str
    num_qubits: int
    original_cx: float
    original_depth: float
    sabre_cx: float
    sabre_depth: float
    sabre_time: float
    nassc_cx: float
    nassc_depth: float
    nassc_time: float
    #: Mean critical-path duration (ns) of the scheduled result; NaN when the
    #: experiment ran without a schedule mode.
    sabre_duration_ns: float = float("nan")
    nassc_duration_ns: float = float("nan")

    @property
    def sabre_added_cx(self) -> float:
        return self.sabre_cx - self.original_cx

    @property
    def nassc_added_cx(self) -> float:
        return self.nassc_cx - self.original_cx

    @property
    def sabre_added_depth(self) -> float:
        return self.sabre_depth - self.original_depth

    @property
    def nassc_added_depth(self) -> float:
        return self.nassc_depth - self.original_depth

    @property
    def delta_cx_total(self) -> float:
        return percentage_change(self.sabre_cx, self.nassc_cx)

    @property
    def delta_cx_added(self) -> float:
        return percentage_change(self.sabre_added_cx, self.nassc_added_cx)

    @property
    def delta_depth_total(self) -> float:
        return percentage_change(self.sabre_depth, self.nassc_depth)

    @property
    def delta_depth_added(self) -> float:
        return percentage_change(self.sabre_added_depth, self.nassc_added_depth)

    @property
    def time_ratio(self) -> float:
        return self.nassc_time / self.sabre_time if self.sabre_time > 0 else float("nan")

    @property
    def delta_duration(self) -> float:
        return percentage_change(self.sabre_duration_ns, self.nassc_duration_ns)

    @property
    def has_durations(self) -> bool:
        return np.isfinite(self.sabre_duration_ns) and np.isfinite(self.nassc_duration_ns)


@dataclass
class TableResult:
    """All rows of one table plus the paper's geometric-mean aggregates.

    ``baseline``/``routing`` name the two compared methods.  The row fields keep their
    historical ``sabre_*``/``nassc_*`` names whatever the methods are: ``sabre_*`` holds
    the baseline's numbers and ``nassc_*`` the treatment's.
    """

    topology: str
    rows: List[ComparisonRow] = field(default_factory=list)
    baseline: str = "sabre"
    routing: str = "nassc"

    @property
    def geomean_delta_cx_total(self) -> float:
        return geometric_mean_reduction(
            [r.sabre_cx for r in self.rows], [r.nassc_cx for r in self.rows]
        )

    @property
    def geomean_delta_cx_added(self) -> float:
        return geometric_mean_reduction(
            [max(r.sabre_added_cx, 1e-9) for r in self.rows],
            [max(r.nassc_added_cx, 1e-9) for r in self.rows],
        )

    @property
    def geomean_delta_depth_total(self) -> float:
        return geometric_mean_reduction(
            [r.sabre_depth for r in self.rows], [r.nassc_depth for r in self.rows]
        )

    @property
    def geomean_delta_depth_added(self) -> float:
        return geometric_mean_reduction(
            [max(r.sabre_added_depth, 1e-9) for r in self.rows],
            [max(r.nassc_added_depth, 1e-9) for r in self.rows],
        )

    @property
    def geomean_time_ratio(self) -> float:
        ratios = [r.time_ratio for r in self.rows if np.isfinite(r.time_ratio) and r.time_ratio > 0]
        if not ratios:
            return float("nan")
        return float(np.exp(np.mean(np.log(ratios))))

    @property
    def has_durations(self) -> bool:
        """Whether the experiment was run with a schedule mode (duration columns filled)."""
        return any(r.has_durations for r in self.rows)

    @property
    def geomean_delta_duration(self) -> float:
        timed = [r for r in self.rows if r.has_durations]
        if not timed:
            return float("nan")
        return geometric_mean_reduction(
            [r.sabre_duration_ns for r in timed], [r.nassc_duration_ns for r in timed]
        )


def _table_target(coupling_map: CouplingMap, schedule: Optional[str]) -> Target:
    """The device of a table run: scheduling needs the topology's synthetic calibration."""
    calibration = synthetic_calibration(coupling_map) if schedule else None
    return Target(coupling_map=coupling_map, calibration=calibration)


def _comparison_jobs(
    case: BenchmarkCase,
    target: Target,
    seeds: Sequence[int],
    nassc_config: Optional[NASSCConfig],
    *,
    baseline: str = "sabre",
    routing: str = "nassc",
    level: str = "O1",
    schedule: Optional[str] = None,
) -> List[TranspileJob]:
    """The jobs of one table row: the no-routing reference, then (baseline, routing) per seed.

    ``schedule`` makes every *routed* job also lower its result to a timed schedule
    against the (calibrated) ``target``; the unrouted reference stays unscheduled (it
    has no device to be timed against).
    """
    # Serialise the circuit once per case; the per-seed jobs share the text.
    qasm_text = qasm.dumps(case.build())
    jobs = [TranspileJob(
        qasm_text, None, TranspileOptions(routing="none", level=level), f"{case.name}[orig]"
    )]
    for seed in seeds:
        for method, config in ((baseline, None), (routing, nassc_config)):
            options = TranspileOptions(
                routing=method, level=level, seed=seed, nassc_config=config, schedule=schedule
            )
            jobs.append(TranspileJob(qasm_text, target, options, f"{case.name}[{method},s{seed}]"))
    return jobs


def _comparison_row(
    case: BenchmarkCase, results: Sequence[TranspileResult]
) -> ComparisonRow:
    """Assemble a table row from the results of one :func:`_comparison_jobs` batch."""
    original = results[0]
    sabre = results[1::2]
    nassc = results[2::2]

    def mean_duration(group: Sequence[TranspileResult]) -> float:
        durations = [r.schedule.duration for r in group if r.schedule is not None]
        return float(np.mean(durations)) if durations else float("nan")

    return ComparisonRow(
        name=case.name,
        num_qubits=case.num_qubits,
        original_cx=original.cx_count,
        original_depth=original.depth,
        sabre_cx=float(np.mean([r.cx_count for r in sabre])),
        sabre_depth=float(np.mean([r.depth for r in sabre])),
        sabre_time=float(np.mean([r.transpile_time for r in sabre])),
        nassc_cx=float(np.mean([r.cx_count for r in nassc])),
        nassc_depth=float(np.mean([r.depth for r in nassc])),
        nassc_time=float(np.mean([r.transpile_time for r in nassc])),
        sabre_duration_ns=mean_duration(sabre),
        nassc_duration_ns=mean_duration(nassc),
    )


def compare_benchmark(
    case: BenchmarkCase,
    coupling_map: CouplingMap,
    *,
    seeds: Sequence[int] = (0,),
    nassc_config: Optional[NASSCConfig] = None,
    baseline: str = "sabre",
    routing: str = "nassc",
    level: str = "O1",
    schedule: Optional[str] = None,
    executor: Optional[BatchTranspiler] = None,
    workers: Optional[int] = None,
) -> ComparisonRow:
    """Average baseline-vs-treatment comparison for one benchmark over the given seeds."""
    executor = _resolve_executor(executor, workers)
    jobs = _comparison_jobs(
        case, _table_target(coupling_map, schedule), seeds, nassc_config,
        baseline=baseline, routing=routing, level=level, schedule=schedule,
    )
    return _comparison_row(case, executor.results(jobs))


def run_table_experiment(
    topology: str = "montreal",
    *,
    cases: Optional[Sequence[BenchmarkCase]] = None,
    seeds: Sequence[int] = (0,),
    num_device_qubits: int = 25,
    baseline: str = "sabre",
    routing: str = "nassc",
    level: str = "O1",
    schedule: Optional[str] = None,
    executor: Optional[BatchTranspiler] = None,
    workers: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
) -> TableResult:
    """Regenerate one of Tables I-IV (the table is chosen by ``topology``).

    ``routing`` may name any registered routing method (the paper's tables compare the
    default ``nassc`` against the ``sabre`` baseline).  All (benchmark, routing, seed)
    combinations are submitted as one job batch, so with ``workers > 1`` the rows
    transpile concurrently and identical jobs are served from the executor's
    content-addressed cache.

    ``schedule`` (``"asap"``/``"alap"``) additionally lowers every routed result to a
    timed schedule against the topology's deterministic synthetic calibration, filling
    the rows' critical-path duration columns.
    """
    coupling_map = get_topology(topology, num_device_qubits)
    if cases is None:
        cases = table_benchmarks(max_qubits=coupling_map.num_qubits)
    executor = _resolve_executor(executor, workers)
    eligible = [case for case in cases if case.num_qubits <= coupling_map.num_qubits]
    target = _table_target(coupling_map, schedule)
    job_lists = [
        _comparison_jobs(
            case, target, seeds, None, baseline=baseline, routing=routing,
            level=level, schedule=schedule,
        )
        for case in eligible
    ]
    flat = [job for jobs in job_lists for job in jobs]
    outcomes = iter(executor.results(flat, progress=progress))
    result = TableResult(topology=coupling_map.name, baseline=baseline, routing=routing)
    for case, jobs in zip(eligible, job_lists):
        result.rows.append(_comparison_row(case, [next(outcomes) for _ in jobs]))
    return result


# ---------------------------------------------------------------------------
# Figure 9: optimization-combination ablation
# ---------------------------------------------------------------------------

@dataclass
class AblationRow:
    """CNOT reduction vs SABRE for every optimization combination (one benchmark)."""

    name: str
    sabre_cx: float
    cx_by_combination: Dict[str, float] = field(default_factory=dict)

    @staticmethod
    def combination_key(config: NASSCConfig) -> str:
        bits = ["2q" if config.enable_2q_resynthesis else "--",
                "c1" if config.enable_commutation1 else "--",
                "c2" if config.enable_commutation2 else "--"]
        return "+".join(bits)

    def reduction(self, key: str) -> float:
        return percentage_change(self.sabre_cx, self.cx_by_combination[key])

    @property
    def all_enabled_reduction(self) -> float:
        return self.reduction("2q+c1+c2")

    @property
    def best_reduction(self) -> float:
        return max(self.reduction(key) for key in self.cx_by_combination)


def run_optimization_ablation(
    topology: str = "montreal",
    *,
    cases: Optional[Sequence[BenchmarkCase]] = None,
    seeds: Sequence[int] = (0,),
    num_device_qubits: int = 25,
    baseline: str = "sabre",
    executor: Optional[BatchTranspiler] = None,
    workers: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[AblationRow]:
    """Regenerate one panel of Figure 9 (best-of-8 combinations vs all-enabled).

    Each benchmark contributes ``len(seeds) * 9`` jobs (the baseline method plus the 8
    NASSC combinations), all submitted as one batch through the executor.
    """
    coupling_map = get_topology(topology, num_device_qubits)
    if cases is None:
        cases = table_benchmarks(max_qubits=coupling_map.num_qubits)
    executor = _resolve_executor(executor, workers)
    eligible = [case for case in cases if case.num_qubits <= coupling_map.num_qubits]
    combinations = NASSCConfig.all_combinations()

    target = Target(coupling_map=coupling_map)
    job_lists: List[List[TranspileJob]] = []
    for case in eligible:
        qasm_text = qasm.dumps(case.build())
        jobs = [
            TranspileJob(
                qasm_text, target, TranspileOptions(routing=baseline, seed=seed),
                f"{case.name}[{baseline},s{seed}]",
            )
            for seed in seeds
        ]
        for config in combinations:
            key = AblationRow.combination_key(config)
            jobs.extend(
                TranspileJob(
                    qasm_text, target,
                    TranspileOptions(routing="nassc", seed=seed, nassc_config=config),
                    f"{case.name}[{key},s{seed}]",
                )
                for seed in seeds
            )
        job_lists.append(jobs)

    flat = [job for jobs in job_lists for job in jobs]
    results = iter(executor.results(flat, progress=progress))
    rows: List[AblationRow] = []
    for case, jobs in zip(eligible, job_lists):
        case_results = [next(results) for _ in jobs]
        sabre_counts = [r.cx_count for r in case_results[: len(seeds)]]
        row = AblationRow(name=case.name, sabre_cx=float(np.mean(sabre_counts)))
        for i, config in enumerate(combinations):
            chunk = case_results[(i + 1) * len(seeds) : (i + 2) * len(seeds)]
            row.cx_by_combination[AblationRow.combination_key(config)] = float(
                np.mean([r.cx_count for r in chunk])
            )
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 11: noise-aware routing and success rate
# ---------------------------------------------------------------------------

@dataclass
class NoiseExperimentRow:
    """Added CNOTs and success rate of the four routing variants for one benchmark."""

    name: str
    original_cx: int
    added_cx: Dict[str, float] = field(default_factory=dict)
    success_rate: Dict[str, float] = field(default_factory=dict)


#: Default Figure-11 variant keys: each base routing method plain and noise-aware (HA).
NOISE_METHODS = ("sabre", "nassc", "sabre_ha", "nassc_ha")


def noise_method_variants(methods: Sequence[str] = ("sabre", "nassc")) -> List[str]:
    """Expand base routing-method names to the plain + ``_ha`` variant keys of Fig. 11."""
    return [f"{base}{suffix}" for base in methods for suffix in ("", "_ha")]


def run_noise_experiment(
    *,
    cases: Optional[Sequence[BenchmarkCase]] = None,
    shots: int = 8192,
    seed: int = 0,
    calibration: Optional[DeviceCalibration] = None,
    realizations: int = 256,
    methods: Sequence[str] = ("sabre", "nassc"),
    executor: Optional[BatchTranspiler] = None,
    workers: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[NoiseExperimentRow]:
    """Regenerate Figure 11 using the synthetic ``ibmq_montreal`` calibration.

    The success rate of a routed circuit is the fraction of noisy shots that return the
    noise-free output of the *original* logical circuit, measured on the physical qubits that
    hold the logical qubits at the end of the routed circuit (the paper's definition of
    "correct output state").

    ``methods`` are base routing-method names from the registry; each is evaluated plain
    and noise-aware (``<method>_ha``).  All routing variants of every benchmark are
    transpiled as one job batch through the executor (the HA variants ship the
    calibrated target inside the job spec); the noisy simulation itself stays
    in-process.
    """
    from ..simulator.statevector import StatevectorSimulator

    calibration = calibration or fake_montreal_calibration()
    montreal = get_topology("montreal")
    # The HA variants ship the calibrated target; the plain ones route on the bare map.
    targets = {
        False: Target(coupling_map=montreal),
        True: Target(coupling_map=montreal, calibration=calibration),
    }
    noise_model = NoiseModel.from_calibration(calibration)
    if cases is None:
        cases = noise_benchmarks()
    executor = _resolve_executor(executor, workers)
    variant_keys = noise_method_variants(methods)

    circuits = [case.build() for case in cases]
    routing_jobs = [
        TranspileJob(
            qasm_text,
            targets[method.endswith("_ha")],
            TranspileOptions(
                routing=method.removesuffix("_ha"), seed=seed,
                noise_aware=method.endswith("_ha"),
            ),
            f"{case.name}[{method}]",
        )
        for case, qasm_text in zip(cases, (qasm.dumps(circuit) for circuit in circuits))
        for method in variant_keys
    ]
    routed_results = iter(executor.results(routing_jobs, progress=progress))

    ideal = StatevectorSimulator()
    rows: List[NoiseExperimentRow] = []
    for case, circuit in zip(cases, circuits):
        optimized = optimize_logical(circuit)
        row = NoiseExperimentRow(name=case.name, original_cx=optimized.cx_count())

        # Logical qubits whose outcome defines "the correct output state": the data register
        # for BV (its oracle ancilla ends in |->), the search register for Grover, and all
        # qubits for the reversible-oracle benchmarks.
        if case.name.startswith("bv"):
            logical_measured = list(range(circuit.num_qubits - 1))
        elif case.name.startswith("grover"):
            logical_measured = list(range((circuit.num_qubits + 2) // 2))
        else:
            logical_measured = list(range(circuit.num_qubits))

        # Noise-free reference outcome of the logical circuit (most likely bitstring,
        # highest measured qubit left-most).
        reference_counts = ideal.sample_counts(
            circuit.without_directives(), 4096, seed=1, measured_qubits=logical_measured
        )
        expected = max(reference_counts, key=reference_counts.get)

        for method in variant_keys:
            result = next(routed_results)
            # Measure the physical qubits holding each measured logical qubit at the end.
            measured_physical = [result.final_layout.physical(q) for q in logical_measured]
            routed = result.circuit.copy()
            for physical in measured_physical:
                # Touch every measured wire so idle logical qubits stay in the simulation.
                routed.id(physical)
            simulator = NoisySimulator(noise_model, realizations=realizations, seed=seed)
            row.added_cx[method] = result.cx_count - row.original_cx
            row.success_rate[method] = simulator.success_rate(
                routed, shots=shots, expected=expected, measured_qubits=measured_physical
            )
        rows.append(row)
    return rows
