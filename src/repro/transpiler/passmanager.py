"""Transpiler pass framework: DAG-native passes, property-set invalidation, flow control.

The :class:`PassManager` runs a schedule of passes over a single :class:`DAGCircuit` IR.
The circuit representation is converted exactly twice per run — ``QuantumCircuit`` →
``DAGCircuit`` on entry and back on exit — and every pass consumes and produces the DAG,
mirroring the Qiskit-terra pass-manager architecture the paper builds on (Fig. 2 / Fig. 5).

Pass taxonomy
    * :class:`AnalysisPass` — inspects the DAG and records results in the shared
      :class:`PropertySet`; must not modify or replace the DAG.
    * :class:`TransformationPass` — returns a (possibly new, possibly in-place mutated)
      DAG.  After a transformation that actually changed the DAG, every property-set key
      registered in :data:`ANALYSIS_KEYS` is dropped unless the pass lists it in its
      ``preserves`` tuple (a pass may preserve an analysis either because it cannot go
      stale, or because the pass patches it incrementally as it rewrites the DAG — the
      commutation machinery does the latter).

Flow control
    Schedules may contain :class:`FlowController` items alongside plain passes:
    :class:`FixedPoint` repeats its body until the DAG fingerprint stops changing (the
    declared converge-until-stable optimization loop).

Timing
    Every pass invocation is recorded as an ordered ``(name, elapsed)`` entry in
    :attr:`PassManager.timing_log`, so repeated instances of the same pass (e.g. the
    iterations of a fixed-point loop) stay distinguishable; :attr:`PassManager.timings`
    remains the backward-compatible by-name aggregate.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..circuit.circuit import QuantumCircuit
from ..circuit.dag import DAGCircuit
from ..exceptions import TranspilerError
from ..obs.tracer import current_tracer

#: Property-set keys that describe the current DAG and go stale when it changes.
#: Transformation passes drop these after a change unless listed in ``preserves``.
ANALYSIS_KEYS = frozenset(
    {
        "commutation_sets",
        "commutation_index",
        "block_list",
        "block_pairs",
        "block_id",
        "is_mapped",
        "schedule",
    }
)


def _dag_stats(dag: DAGCircuit) -> Dict[str, int]:
    """Span-attribute snapshot of a DAG: size, depth, 2q count, SWAP count.

    Traced paths record the before/after delta of these per pass; this is the "where do
    gates, depth and SWAPs actually come from" view the paper's evaluation revolves
    around.  Called only when a tracer is installed, so the untraced hot path never
    pays for it — but traced overhead is gated in CI, hence one fused unsorted-Kahn
    walk computing everything (the DAG's edges *are* the wire adjacencies, so the
    longest path equals wire-frontier depth).
    """
    nodes = dag.nodes
    if not nodes:
        return {"gates": 0, "depth": 0, "two_qubit": 0, "swaps": 0}
    preds = dag._predecessors
    succs = dag._successors
    # Node ids come from a per-DAG counter, so flat lists indexed by id beat dicts.
    size = dag._next_id
    indegree = [0] * size
    level = [0] * size
    ready: List[int] = []
    two_q = 0
    swaps = 0
    for nid, node in nodes.items():
        if len(node.qubits) == 2:
            two_q += 1
            if node.name == "swap":
                swaps += 1
        degree = len(preds[nid])
        if degree:
            indegree[nid] = degree
        else:
            ready.append(nid)
    depth = 0
    idx = 0
    while idx < len(ready):
        nid = ready[idx]
        idx += 1
        best = 0
        for pred in preds[nid]:
            pred_level = level[pred]
            if pred_level > best:
                best = pred_level
        best += 1
        level[nid] = best
        if best > depth:
            depth = best
        for succ in succs[nid]:
            remaining = indegree[succ] - 1
            indegree[succ] = remaining
            if not remaining:
                ready.append(succ)
    if idx != len(nodes):  # pragma: no cover - cycles are rejected at mutation time
        for _ in dag.topological_nodes():  # raises the canonical cycle error
            pass
    return {"gates": len(nodes), "depth": depth, "two_qubit": two_q, "swaps": swaps}


class PropertySet(dict):
    """Shared key/value store passed between transpiler passes.

    Keys fall in two classes: pipeline state that survives DAG rewrites (``layout``,
    ``final_layout``, ``num_swaps``, ...) and DAG-derived analysis results (the keys in
    :data:`ANALYSIS_KEYS`) that are invalidated whenever a transformation changes the DAG.
    """

    def invalidate_analyses(self, preserved: Sequence[str] = ()) -> None:
        """Drop DAG-derived analysis keys, keeping the explicitly preserved ones."""
        for key in ANALYSIS_KEYS.difference(preserved):
            self.pop(key, None)


class TranspilerPass:
    """Base class for all transpiler passes.

    Subclass :class:`AnalysisPass` or :class:`TransformationPass` rather than this class;
    the pass manager uses the distinction to route return values and drive invalidation.
    ``run`` receives the current :class:`DAGCircuit` and the shared :class:`PropertySet`.
    """

    #: Human-readable pass name (defaults to the class name).
    name: str = ""

    #: Analysis keys this pass keeps valid across its own DAG changes (transformations
    #: only).  A key belongs here when the pass patches the analysis incrementally.
    preserves: Tuple[str, ...] = ()

    def __init__(self) -> None:
        if not self.name:
            self.name = type(self).__name__

    def run(self, dag: DAGCircuit, property_set: PropertySet) -> Optional[DAGCircuit]:
        raise NotImplementedError

    def run_circuit(
        self, circuit: QuantumCircuit, property_set: Optional[PropertySet] = None
    ) -> QuantumCircuit:
        """Circuit-in/circuit-out convenience boundary (tests, tools, one-off use).

        Equivalent to running a one-pass :class:`PassManager` against ``circuit`` with an
        optional caller-owned property set.
        """
        props = property_set if property_set is not None else PropertySet()
        dag = DAGCircuit.from_circuit(circuit)
        result = self.run(dag, props)
        if result is None or isinstance(self, AnalysisPass):
            result = dag
        return result.to_circuit()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{self.name}>"


class AnalysisPass(TranspilerPass):
    """A pass that only inspects the DAG and writes results to the property set.

    ``run`` must leave the DAG untouched and return ``None`` (returning the input DAG is
    tolerated); the pass manager always carries the input DAG forward.
    """


class TransformationPass(TranspilerPass):
    """A pass that rewrites the DAG, either in place or by returning a rebuilt one.

    ``run`` must return a :class:`DAGCircuit`.  When the returned DAG differs from the
    input (different object, or same object with a bumped mutation version) the pass
    manager invalidates every analysis key not listed in ``preserves``.
    """


#: Schedule items are passes or flow controllers.
ScheduleItem = Union[TranspilerPass, "FlowController"]


class FlowController:
    """A container that decides how (and how often) its body of schedule items runs."""

    def __init__(self, passes: Sequence[ScheduleItem]) -> None:
        self.passes: List[ScheduleItem] = list(passes)

    def execute(self, dag: DAGCircuit, manager: "PassManager") -> DAGCircuit:
        raise NotImplementedError

    def _run_body(self, dag: DAGCircuit, manager: "PassManager") -> DAGCircuit:
        for item in self.passes:
            dag = manager._run_item(item, dag)
        return dag

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.passes}>"


class FixedPoint(FlowController):
    """Repeat a body of passes until the DAG reaches a fixed point.

    Convergence is keyed on :meth:`DAGCircuit.fingerprint`: after each iteration the body
    runs again only if the fingerprint changed, up to ``max_iterations``.  This replaces
    hard-coded repeated pass pairs (run-twice-and-hope) with a declared
    converge-until-stable loop.
    """

    def __init__(self, passes: Sequence[ScheduleItem], max_iterations: int = 10) -> None:
        super().__init__(passes)
        if max_iterations < 1:
            raise TranspilerError("FixedPoint needs at least one iteration")
        self.max_iterations = max_iterations

    def execute(self, dag: DAGCircuit, manager: "PassManager") -> DAGCircuit:
        for _ in range(self.max_iterations):
            before = dag.fingerprint()
            dag = self._run_body(dag, manager)
            if dag.fingerprint() == before:
                break
        return dag


class PassManager:
    """Run a schedule of passes/flow controllers over one DAG and collect per-pass timing."""

    def __init__(self, passes: Optional[Sequence[ScheduleItem]] = None) -> None:
        self._items: List[ScheduleItem] = list(passes or [])
        self.property_set = PropertySet()
        #: Ordered per-invocation timing entries ``(pass name, elapsed seconds)``.
        self.timing_log: List[Tuple[str, float]] = []
        #: Traced-mode stats memo: ``(dag object, dag.version, stats)``.
        self._stats_memo: Optional[Tuple[DAGCircuit, int, Dict[str, int]]] = None

    def _traced_stats(self, dag: DAGCircuit) -> Dict[str, int]:
        """DAG stats memoised on identity+version (traced runs only)."""
        memo = self._stats_memo
        if memo is not None and memo[0] is dag and memo[1] == dag.version:
            return memo[2]
        stats = _dag_stats(dag)
        self._stats_memo = (dag, dag.version, stats)
        return stats

    def append(self, item: ScheduleItem) -> "PassManager":
        self._items.append(item)
        return self

    def extend(self, items: Sequence[ScheduleItem]) -> "PassManager":
        self._items.extend(items)
        return self

    @property
    def passes(self) -> List[ScheduleItem]:
        return list(self._items)

    def run(self, circuit: QuantumCircuit) -> QuantumCircuit:
        """Run the schedule on a circuit: one conversion in, one conversion out."""
        return self.run_dag(DAGCircuit.from_circuit(circuit)).to_circuit()

    def run_dag(self, dag: DAGCircuit) -> DAGCircuit:
        """Run the schedule directly on a DAG (no conversion at either boundary)."""
        for item in self._items:
            dag = self._run_item(item, dag)
        return dag

    # -- scheduling internals -----------------------------------------------

    def _run_item(self, item: ScheduleItem, dag: DAGCircuit) -> DAGCircuit:
        if isinstance(item, FlowController):
            return item.execute(dag, self)
        return self._run_pass(item, dag)

    def _run_pass(self, pass_: TranspilerPass, dag: DAGCircuit) -> DAGCircuit:
        """Run one pass through :meth:`_timed_run`; an installed tracer wraps that call
        in one span carrying the DAG delta (gates, depth, 2q count, SWAPs inserted), so
        ``timing_log`` is the flat view of the span tree.

        DAG stats are memoised on ``(dag, version)``: pass N's after-stats are pass
        N+1's before-stats, so the walk runs once per *actual change*, not twice per
        pass — this keeps traced overhead within the CI trace-overhead gate."""
        tracer = current_tracer()
        if tracer is None:
            return self._timed_run(pass_, dag)
        version_before = dag.version
        before = self._traced_stats(dag)
        kind = "analysis" if isinstance(pass_, AnalysisPass) else "transform"
        with tracer.span(f"pass:{pass_.name}", kind=kind) as span:
            out = self._timed_run(pass_, dag)
            changed = not isinstance(pass_, AnalysisPass) and (
                out is not dag or out.version != version_before
            )
            span.set("changed", changed)
            if changed:
                after = self._traced_stats(out)
                span.set("gates", after["gates"])
                span.set("depth", after["depth"])
                span.set("two_qubit", after["two_qubit"])
                for key in ("gates", "depth", "two_qubit"):
                    span.set(f"d_{key}", after[key] - before[key])
                span.set("swaps_inserted", after["swaps"] - before["swaps"])
        return out

    def _timed_run(self, pass_: TranspilerPass, dag: DAGCircuit) -> DAGCircuit:
        """The one timed pass call: run, append to ``timing_log``, validate the result."""
        version_before = dag.version
        start = time.perf_counter()
        result = pass_.run(dag, self.property_set)
        self.timing_log.append((pass_.name, time.perf_counter() - start))
        if isinstance(pass_, AnalysisPass):
            if result is not None and result is not dag:
                raise TranspilerError(
                    f"analysis pass {pass_.name} must not replace the DAG"
                )
            if dag.version != version_before:
                raise TranspilerError(f"analysis pass {pass_.name} modified the DAG")
            return dag
        if result is None:
            raise TranspilerError(f"pass {pass_.name} returned None")
        changed = result is not dag or result.version != version_before
        if changed:
            self.property_set.invalidate_analyses(pass_.preserves)
        return result

    # -- timing ---------------------------------------------------------------

    @property
    def timings(self) -> Dict[str, float]:
        """Per-pass-name aggregate of :attr:`timing_log` (backward-compatible view)."""
        out: Dict[str, float] = {}
        for name, elapsed in self.timing_log:
            out[name] = out.get(name, 0.0) + elapsed
        return out

    def total_time(self) -> float:
        return sum(elapsed for _, elapsed in self.timing_log)
