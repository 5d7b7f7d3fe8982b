"""Target-centric compilation entry points (paper Fig. 2 and Fig. 5).

``transpile(circuit, target, options)`` is the public compile API: the
:class:`~repro.hardware.target.Target` describes the device (coupling map, calibration,
output basis), the :class:`~repro.core.options.TranspileOptions` select the routing
method (by registry name) and the preset optimization level ``O0``-``O3``, and the
staged :class:`~repro.transpiler.builder.PipelineBuilder` composes the pass manager from
declared stages.  At level ``O1`` with ``routing="sabre"``/``"nassc"`` the composed
pipeline is exactly the paper's evaluation pipeline, so differences in the reported
metrics still isolate the paper's contribution.

The device is always a :class:`Target` (or ``None`` for an abstract all-to-all target);
device properties are never separate keyword arguments.  Individual option fields may be
given as keyword overrides of the ``options`` object.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..circuit.circuit import QuantumCircuit
from ..exceptions import TranspilerError
from ..schedule.ir import Schedule
from ..hardware.coupling import CouplingMap
from ..hardware.target import Target
from ..obs.tracer import active_tracer, env_trace_path
from ..transpiler.builder import PipelineBuilder
from ..transpiler.passmanager import PropertySet
from ..transpiler.passes.layout import Layout
from .nassc import NASSCConfig
from .options import TranspileOptions

#: Version of the transpiler pipeline's structure/semantics.  Bumped whenever a refactor
#: could change compiled output or the meaning of recorded metrics; the service layer folds
#: it into job fingerprints so refactored pipelines never serve stale cached results.
PIPELINE_VERSION = 5


@dataclass
class TranspileResult:
    """Compiled circuit plus the metrics the paper reports."""

    circuit: QuantumCircuit
    routing: str
    coupling_map: Optional[CouplingMap]
    initial_layout: Optional[Layout]
    final_layout: Optional[Layout]
    num_swaps: int
    transpile_time: float
    #: Per-pass-name aggregate wall time (instances of the same pass are summed).
    pass_timings: Dict[str, float] = field(default_factory=dict)
    #: Ordered per-invocation timing entries ``(pass name, elapsed seconds)`` — repeated
    #: instances (e.g. fixed-point loop iterations) stay distinguishable here.
    pass_timing_log: List[Tuple[str, float]] = field(default_factory=list)
    #: Preset optimization level the circuit was compiled at.
    level: str = "O1"
    #: Serialised span tree of this call when tracing was enabled (see
    #: :mod:`repro.obs`); empty when tracing was off.  For remote jobs the client
    #: merges server/worker spans in here, yielding the full cross-process tree.
    trace: List[Dict] = field(default_factory=list)
    #: Number of ensemble routing trials the result was selected from (1 = plain run).
    best_of: int = 1
    #: Ensemble summary (winner, per-trial outcomes) when ``best_of > 1``, else None.
    ensemble: Optional[Dict] = None
    #: Timed schedule of the compiled circuit when ``options.schedule`` was set
    #: (a :class:`repro.schedule.Schedule`), else None.
    schedule: Optional[Schedule] = None

    @property
    def cx_count(self) -> int:
        return self.circuit.cx_count()

    @property
    def depth(self) -> int:
        return self.circuit.depth()

    def count_ops(self) -> Dict[str, int]:
        return self.circuit.count_ops()

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-safe representation of the result (circuit serialised as OpenQASM 2.0).

        Only gates in the standard named set survive the round trip, which every circuit
        produced by :func:`transpile` satisfies.  Used by the result cache of
        :mod:`repro.service` and by :mod:`repro.evaluation.reporting` JSON exports.
        """
        from ..circuit import qasm

        out = {
            "qasm": qasm.dumps(self.circuit),
            "name": self.circuit.name,
            "routing": self.routing,
            "level": self.level,
            "coupling_map": self.coupling_map.to_dict() if self.coupling_map else None,
            "initial_layout": self.initial_layout.to_pairs() if self.initial_layout else None,
            "final_layout": self.final_layout.to_pairs() if self.final_layout else None,
            "num_swaps": int(self.num_swaps),
            "transpile_time": float(self.transpile_time),
            "pass_timings": {name: float(t) for name, t in self.pass_timings.items()},
            "pass_timing_log": [[name, float(t)] for name, t in self.pass_timing_log],
            "metrics": {
                "cx_count": self.cx_count,
                "depth": self.depth,
                "count_ops": self.count_ops(),
            },
        }
        if self.trace:
            out["trace"] = list(self.trace)
        if self.best_of != 1:
            out["best_of"] = int(self.best_of)
        if self.ensemble is not None:
            out["ensemble"] = dict(self.ensemble)
        if self.schedule is not None:
            out["schedule"] = self.schedule.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "TranspileResult":
        """Rebuild a result from :meth:`to_dict` output."""
        from ..circuit import qasm

        circuit = qasm.loads(data["qasm"])
        circuit.name = data.get("name", circuit.name)
        coupling = data.get("coupling_map")
        initial = data.get("initial_layout")
        final = data.get("final_layout")
        return cls(
            circuit=circuit,
            routing=data["routing"],
            level=data.get("level", "O1"),
            coupling_map=CouplingMap.from_dict(coupling) if coupling else None,
            initial_layout=Layout.from_pairs(initial) if initial else None,
            final_layout=Layout.from_pairs(final) if final else None,
            num_swaps=int(data.get("num_swaps", 0)),
            transpile_time=float(data.get("transpile_time", 0.0)),
            pass_timings=dict(data.get("pass_timings", {})),
            pass_timing_log=[
                (str(name), float(t)) for name, t in data.get("pass_timing_log", [])
            ],
            trace=list(data.get("trace", [])),
            best_of=int(data.get("best_of", 1)),
            ensemble=data.get("ensemble"),
            schedule=Schedule.from_dict(data["schedule"]) if data.get("schedule") else None,
        )


# ---------------------------------------------------------------------------
# Target/options resolution
# ---------------------------------------------------------------------------

def resolve_target(target: Optional[Target]) -> Target:
    """The device of a compile entry point: ``None`` is the abstract all-to-all target."""
    if target is None:
        return Target()
    if not isinstance(target, Target):
        raise TranspilerError(
            f"expected a Target or None, got {type(target).__name__}; "
            "describe the device as Target(coupling_map=...)"
        )
    return target


def _resolve_options(options: Optional[TranspileOptions], overrides: Dict) -> TranspileOptions:
    """Merge per-call kwargs over the options object (or the defaults)."""
    provided = {key: value for key, value in overrides.items() if value is not None}
    base = options if options is not None else TranspileOptions()
    if not isinstance(base, TranspileOptions):
        raise TranspilerError(f"options must be a TranspileOptions, got {type(base).__name__}")
    return base.replace(**provided) if provided else base


def transpile(
    circuit: QuantumCircuit,
    target: Optional[Target] = None,
    options: Optional[TranspileOptions] = None,
    *,
    routing: Optional[str] = None,
    level: Optional[Union[str, int]] = None,
    seed: Optional[int] = None,
    nassc_config: Optional[NASSCConfig] = None,
    noise_aware: Optional[bool] = None,
    extended_set_size: Optional[int] = None,
    extended_set_weight: Optional[float] = None,
    layout_iterations: Optional[int] = None,
    check: Optional[bool] = None,
    best_of: Optional[int] = None,
    schedule: Optional[str] = None,
    route_cost: Optional[str] = None,
) -> TranspileResult:
    """Compile a logical circuit for a device target.

    The canonical call shape is ``transpile(circuit, target, options)``; individual
    option fields may also be given as keyword overrides for one-off calls
    (``transpile(circuit, target, level="O2")``).  Defaults mirror the paper's
    experimental configuration (Sec. V): extended layer size 20 with weight 0.5,
    SABRE-style reverse-traversal layout, all NASSC optimizations enabled, level ``O1``.
    """
    resolved_target = resolve_target(target)
    resolved_options = _resolve_options(
        options,
        {
            "routing": routing,
            "level": level,
            "seed": seed,
            "nassc_config": nassc_config,
            "noise_aware": noise_aware,
            "extended_set_size": extended_set_size,
            "extended_set_weight": extended_set_weight,
            "layout_iterations": layout_iterations,
            "check": check,
            "best_of": best_of,
            "schedule": schedule,
            "route_cost": route_cost,
        },
    )

    tracer = active_tracer()

    start = time.perf_counter()
    builder = PipelineBuilder(resolved_target, resolved_options)
    manager = builder.build()
    if tracer is None:
        compiled = manager.run(circuit)
    else:
        since = len(tracer.finished)
        with tracer.span(
            "transpile",
            circuit=circuit.name,
            qubits=circuit.num_qubits,
            routing=resolved_options.routing,
            level=resolved_options.level,
            seed=resolved_options.seed,
        ) as root:
            compiled = manager.run(circuit)
            root.set("gates", len(compiled.data))
            root.set("depth", compiled.depth())
            root.set("num_swaps", manager.property_set.get("num_swaps", 0))
    elapsed = time.perf_counter() - start

    props: PropertySet = manager.property_set
    result = TranspileResult(
        circuit=compiled,
        routing=resolved_options.routing,
        level=resolved_options.level,
        coupling_map=resolved_target.coupling_map,
        initial_layout=props.get("initial_layout", props.get("layout")),
        final_layout=props.get("final_layout"),
        num_swaps=props.get("num_swaps", 0),
        transpile_time=elapsed,
        pass_timings=dict(manager.timings),
        pass_timing_log=list(manager.timing_log),
        best_of=builder.ensemble_trials,
        ensemble=props.get("ensemble"),
        schedule=props.get("schedule"),
    )
    if tracer is not None:
        result.trace = tracer.span_dicts(since=since)
        trace_path = env_trace_path()
        if trace_path:
            from ..obs.counters import COUNTERS
            from ..obs.export import write_chrome_trace

            write_chrome_trace(trace_path, tracer.span_dicts(), COUNTERS.snapshot())
    return result


def optimize_logical(circuit: QuantumCircuit, final_basis: str = "zsx") -> QuantumCircuit:
    """Optimize a circuit without any routing (the Tables' "Original Circuit" column)."""
    target = Target(final_basis=final_basis)
    manager = PipelineBuilder(target, TranspileOptions(routing="none")).build()
    return manager.run(circuit)


def compare_routings(
    circuit: QuantumCircuit,
    target: Optional[Target],
    *,
    methods: Sequence[str] = ("sabre", "nassc"),
    seed: Optional[int] = None,
    nassc_config: Optional[NASSCConfig] = None,
    noise_aware: Optional[bool] = None,
    level: Optional[Union[str, int]] = None,
    options: Optional[TranspileOptions] = None,
) -> Dict[str, TranspileResult]:
    """Run several routing methods on one circuit and return results keyed by method.

    Every option is forwarded to each method, so Fig.-11 style noise-aware comparisons
    work directly::

        compare_routings(circuit, Target(coupling, calibration=calib), noise_aware=True)

    As with :func:`transpile`, keyword arguments override the corresponding fields of an
    ``options`` object when both are given.
    """
    base = _resolve_options(
        options,
        {"seed": seed, "nassc_config": nassc_config, "noise_aware": noise_aware, "level": level},
    )
    return {
        method: transpile(circuit, target, base.replace(routing=method))
        for method in methods
    }
