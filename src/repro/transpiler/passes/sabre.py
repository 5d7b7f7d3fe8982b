"""SABRE qubit routing (Li, Ding, Xie - ASPLOS 2019), the paper's baseline.

The router walks the logical circuit's dependency frontier layer by layer (resolved /
front / extended layers, paper Fig. 6), inserting SWAPs chosen by a lookahead heuristic
cost function over the device distance matrix.  :class:`SabreSwapRouter` is also the base
class for the NASSC router in :mod:`repro.core.nassc`, which only overrides the cost
function and the SWAP labelling.

There is one routing loop, :meth:`SabreSwapRouter.route_steps`, over one frontier type
(:class:`~repro.circuit.dag.StreamingDAG`) and one output sink (:class:`StreamingOutput`).
Callers differ only in the frontier's window and in what the ``emit`` callback does with
each routed operation:

* :meth:`SabreSwapRouter.route` and ensemble trials admit the whole circuit at once and
  emit into the output :class:`DAGCircuit`;
* layout-refinement sweeps admit the whole circuit and emit nothing (only the final
  layout is used); they record the routed prefix only when the router's scoring reads
  it (:attr:`SabreSwapRouter.scores_routed_prefix`);
* :func:`repro.core.stream.transpile_stream` admits a bounded window and emits routed
  OpenQASM text.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...circuit.circuit import QuantumCircuit
from ...circuit.dag import DAGCircuit, DAGNode, StreamingDAG
from ...circuit.gates import Gate, gate as make_gate
from ...exceptions import TranspilerError
from ...hardware.coupling import CouplingMap
from ...obs.counters import COUNTERS
from ..passmanager import AnalysisPass, PropertySet, TransformationPass
from .layout import Layout

#: Per-wire bound on the router's position history.  The NASSC estimators scan the
#: routed prefix backward through :meth:`repro.core.estimators.OptimizationEstimator`
#: and consume at most ``MAX_COMMUTE_SCAN`` merged positions (trailing-block
#: reconstruction stops even earlier at ``MAX_BLOCK_GATES``), so keeping a few more
#: than that per wire is exactly equivalent to unbounded history — without the unbounded
#: memory growth on long circuits.  ``tests/transpiler/test_sabre.py`` asserts this
#: constant dominates the estimator scan depths.
WIRE_HISTORY_BOUND = 24

#: Decay added to both qubits of every inserted SWAP (reset once a gate executes), so
#: the router spreads consecutive SWAPs over the device instead of reusing hot qubits.
DECAY_DELTA = 0.001


def front_ext_sums(
    distance: np.ndarray, mapped_a: np.ndarray, mapped_b: np.ndarray, front_cols: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row (front, extended) distance sums — THE router scoring kernel.

    ``mapped_a``/``mapped_b`` are (rows x cols) integer tables of physical qubit
    indices; column ``c < front_cols`` belongs to the front window, the rest to the
    extended window.  One fancy-indexed gather, then sequential (not pairwise) row
    sums: that keeps the float64 result bit-identical to a per-gate scalar loop even for
    non-integer (noise-aware) distance matrices, where pairwise summation could differ
    in the last ulp and flip a 1e-12 tie-break.
    """
    table = distance[mapped_a, mapped_b]
    return _row_sums(table[:, :front_cols]), _row_sums(table[:, front_cols:])


def _row_sums(table: np.ndarray) -> np.ndarray:
    """Left-to-right row sums: ``np.add.accumulate`` adds one column at a time."""
    if table.shape[1] == 0:
        return np.zeros(table.shape[0])
    return np.add.accumulate(table, axis=1)[:, -1]


class _LiteOp:
    """Routed-operation record with the ``gate``/``name``/``qubits``/``clbits`` shape of
    an :class:`~repro.circuit.circuit.Instruction` (what ``emit`` and the NASSC
    estimators read)."""

    __slots__ = ("gate", "qubits", "clbits")

    def __init__(self, gate: Gate, qubits: Tuple[int, ...], clbits: Tuple[int, ...]) -> None:
        self.gate = gate
        self.qubits = qubits
        self.clbits = clbits

    @property
    def name(self) -> str:
        return self.gate.name


class StreamingOutput:
    """The routed prefix: hand each op to ``emit`` and keep what scoring scans of it.

    Every appended operation is passed to ``emit(position, op)`` (when given), stored
    in ``data``, a position-keyed dict, and its position is appended to
    ``wire_history[p]`` for each of its physical qubits ``p``: the per-wire deques
    (bounded by :data:`WIRE_HISTORY_BOUND`) that the NASSC estimators' backward scans
    walk.  Every ``_TRIM_INTERVAL`` appends, positions no longer referenced by any
    wire history are dropped from ``data``.  The estimators only look up positions
    recorded in those deques, so scoring is identical to keeping every op, while the
    retained set stays bounded by ``num_wires * WIRE_HISTORY_BOUND + _TRIM_INTERVAL``
    entries regardless of circuit length.
    """

    __slots__ = ("data", "wire_history", "_emit", "_count")

    _TRIM_INTERVAL = 256

    def __init__(
        self, num_wires: int, emit: Optional[Callable[[int, _LiteOp], None]] = None
    ) -> None:
        self.wire_history: Dict[int, Deque[int]] = {
            p: deque(maxlen=WIRE_HISTORY_BOUND) for p in range(num_wires)
        }
        self._emit = emit
        self.data: Dict[int, _LiteOp] = {}
        self._count = 0

    def append(self, gate: Gate, qubits: Tuple[int, ...], clbits: Tuple[int, ...] = ()) -> int:
        """Record one routed op; returns its output position."""
        op = _LiteOp(gate, qubits, clbits)
        position = self._count
        self.data[position] = op
        self._count = position + 1
        history = self.wire_history
        for p in qubits:
            history[p].append(position)
        if self._emit is not None:
            self._emit(position, op)
        if self._count % self._TRIM_INTERVAL == 0:
            self._trim()
        return position

    def _trim(self) -> None:
        live = {pos for history in self.wire_history.values() for pos in history}
        self.data = {pos: op for pos, op in self.data.items() if pos in live}

    def __len__(self) -> int:
        return self._count


def whole_frontier(
    instructions: Sequence, num_qubits: int, num_clbits: int = 0
) -> StreamingDAG:
    """The frontier in-memory routing walks: every instruction admitted up front.

    Node ids follow list order; for a DAG's ``op_nodes()`` (insertion order) the walk
    therefore visits successors in the DAG's own dependency order, step for step.
    """
    for inst in instructions:
        if len(inst.qubits) > 2 and inst.name != "barrier":
            raise TranspilerError(
                f"cannot route gate '{inst.name}' on {len(inst.qubits)} qubits; decompose first"
            )
    return StreamingDAG(
        instructions, num_qubits, num_clbits, window_gates=len(instructions) + 1
    )


def dag_emitter(dag: DAGCircuit, num_qubits: int) -> Tuple[DAGCircuit, Callable]:
    """Empty routed-output DAG for ``dag`` on ``num_qubits`` device wires, and the
    ``emit`` callback that appends each routed operation to it."""
    routed = DAGCircuit(num_qubits, dag.num_clbits, dag.name)
    routed.metadata = dict(dag.metadata)

    def emit(position: int, op: _LiteOp) -> None:
        routed.add_node(op.gate, op.qubits, op.clbits)

    return routed, emit


@dataclass
class RoutingResult:
    """Output of one routing run (``dag`` is ``None`` when nothing was collected)."""

    dag: Optional[DAGCircuit]
    initial_layout: Layout
    final_layout: Layout
    num_swaps: int
    swap_labels: Dict[int, str] = field(default_factory=dict)
    _circuit: Optional[QuantumCircuit] = field(default=None, repr=False, compare=False)

    @property
    def circuit(self) -> QuantumCircuit:
        """Linearized view of the routed DAG (materialised lazily and cached)."""
        if self._circuit is None:
            self._circuit = self.dag.to_circuit()
        return self._circuit


def drive_steps(steps):
    """Run a routing-step generator to completion and return its result."""
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


def layout_traversals(dag: DAGCircuit):
    """Forward/backward frontiers for SABRE layout selection (or ``None``).

    Each sweep walks a :meth:`~repro.circuit.dag.StreamingDAG.copy` of these, over the
    circuit's unitary part.  Returns ``None`` when the circuit has no two-qubit
    interaction to refine on — the random seed layout is then final.  The frontiers are
    trial-independent, so the ensemble engine builds them once for all trials.
    """
    forward = [
        node for node in dag.op_nodes() if node.gate.is_unitary and node.name != "barrier"
    ]
    if not any(len(node.qubits) == 2 for node in forward):
        return None
    return (
        whole_frontier(forward, dag.num_qubits),
        whole_frontier(forward[::-1], dag.num_qubits),
    )


def refine_layout(router, layout, iterations, traversals):
    """SABRE reverse-traversal layout refinement; returns the refined :class:`Layout`.

    Each of ``iterations`` rounds routes every frontier of ``traversals`` (see
    :func:`layout_traversals`) in turn, starting from the layout the previous sweep
    ended in.  The sweeps' routed operations are never emitted — only the layout they
    end in matters — so a sweep records its routed prefix only when the router's
    scoring reads it (:attr:`SabreSwapRouter.scores_routed_prefix`).
    """
    for _ in range(iterations):
        for frontier in traversals:
            layout = drive_steps(router.route_steps(frontier.copy(), layout)).final_layout
    return layout


class SabreSwapRouter:
    """SWAP-based bidirectional heuristic router (SABRE).

    Parameters mirror the paper's configuration (Sec. V): extended-layer size 20 and
    extended-layer weight 0.5.  A routing method is one router class (this one or a
    subclass); :meth:`repro.transpiler.builder.PipelineBuilder.make_router` builds every
    router a compile uses.
    """

    #: Name of the :class:`SabreRouting` pass that wraps this router (timing-log key).
    pass_name = "SabreRouting"

    #: Whether scoring reads the routed prefix (the :class:`StreamingOutput`).  A run
    #: with no ``emit`` records the prefix only when it does: SABRE layout sweeps record
    #: nothing, NASSC sweeps keep what the estimators scan.
    scores_routed_prefix = False

    #: Number of SWAP insertions without resolving any gate before the safety valve engages.
    _STALL_LIMIT_FACTOR = 10

    def __init__(
        self,
        coupling_map: CouplingMap,
        *,
        extended_set_size: int = 20,
        extended_set_weight: float = 0.5,
        seed: Optional[int] = None,
        distance_matrix: Optional[np.ndarray] = None,
    ) -> None:
        self.coupling_map = coupling_map
        self.extended_set_size = extended_set_size
        self.extended_set_weight = extended_set_weight
        self.seed = seed
        self.distance = np.ascontiguousarray(
            np.asarray(distance_matrix, dtype=float)
            if distance_matrix is not None
            else coupling_map.distance_matrix()
        )
        # Device structure for the inner loop's scalar reads, as Python lists (indexing
        # them beats indexing numpy arrays one element at a time): adjacency rows for
        # executability checks and neighbour lists for candidate generation.
        self._adjacent = coupling_map.adjacency_matrix().tolist()
        indptr, indices = coupling_map.adjacency_arrays()
        self._neighbors = [
            indices[indptr[p]:indptr[p + 1]].tolist() for p in range(len(indptr) - 1)
        ]

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def route(self, circuit, initial_layout: Optional[Layout] = None) -> RoutingResult:
        """Route a logical circuit (``QuantumCircuit`` or ``DAGCircuit``) onto the device."""
        dag = circuit if isinstance(circuit, DAGCircuit) else DAGCircuit.from_circuit(circuit)
        routed, emit = dag_emitter(dag, self.coupling_map.num_qubits)
        frontier = whole_frontier(dag.op_nodes(), dag.num_qubits, dag.num_clbits)
        result = drive_steps(self.route_steps(frontier, initial_layout, emit=emit))
        result.dag = routed
        return result

    def route_steps(
        self,
        frontier: StreamingDAG,
        initial_layout: Optional[Layout] = None,
        emit: Optional[Callable] = None,
    ):
        """The SABRE routing loop, as a generator over its scoring points.

        Walks ``frontier`` to exhaustion, handing every routed operation to
        ``emit(position, op)`` the moment it is placed (``op`` has the
        ``gate``/``name``/``qubits``/``clbits`` shape of an
        :class:`~repro.circuit.circuit.Instruction`).  At every heuristic scoring point,
        before it scores the candidates, the loop yields the number of SWAPs inserted so
        far: :func:`repro.core.stream.transpile_stream` flushes its output buffer there,
        and the ensemble stops a trial that has fallen behind by closing the generator.
        Returns a :class:`RoutingResult` with ``dag=None`` as the generator's
        ``StopIteration`` value; :func:`drive_steps` runs it to that result.
        """
        if frontier.num_qubits > self.coupling_map.num_qubits:
            raise TranspilerError(
                f"circuit needs {frontier.num_qubits} qubits but the device has "
                f"{self.coupling_map.num_qubits}"
            )
        rng = np.random.default_rng(self.seed)
        layout = (initial_layout or Layout.trivial(frontier.num_qubits)).copy()
        initial = layout.copy()
        self._reset_routing_memos()
        out: Optional[StreamingOutput] = None
        if emit is not None or self.scores_routed_prefix:
            out = StreamingOutput(self.coupling_map.num_qubits, emit)
        self._out = out
        self._decay = np.ones(self.coupling_map.num_qubits)

        swap_labels: Dict[int, str] = {}
        num_swaps = 0
        stall_counter = 0
        stall_limit = self._STALL_LIMIT_FACTOR * (self.coupling_map.diameter() + 1)
        last_swap: Optional[Tuple[int, int]] = None
        cached_extended: Optional[List[DAGNode]] = None
        cached_frontier_version = -1
        front_state: Optional[Tuple[int, int]] = None

        while not frontier.is_done():
            if self._execute_ready_gates(frontier, layout, out):
                self._decay[:] = 1.0
                stall_counter = 0
                last_swap = None
                continue
            if frontier.is_done():
                break

            # The scoring tables depend only on the frontier state, which is unchanged
            # between consecutive SWAP insertions that execute no gate — reuse them then.
            # ``version`` moves on every resolve; between resolves the front can only
            # grow (a lookahead spill may admit a gate with no predecessors), so the
            # version and the front's size together pin the front.
            state = (frontier.version, frontier.front_size)
            if state != front_state:
                front_state = state
                front_gates = [n for n in frontier.front if n.two_qubit]
                if not front_gates:
                    raise TranspilerError(
                        "routing stalled with no two-qubit gate in the front layer"
                    )
                if frontier.version != cached_frontier_version:
                    cached_extended = frontier.lookahead(self.extended_set_size)
                    cached_frontier_version = frontier.version
                extended = cached_extended
                qubit_pairs = np.array(
                    [node.qubits for node in front_gates + extended], dtype=np.intp
                ).T

            if stall_counter >= stall_limit:
                # Safety valve: march the first blocked gate together along a shortest path.
                swap = self._forced_swap(front_gates[0], layout)
            else:
                yield num_swaps
                candidates = self._swap_candidates(front_gates, layout)
                if last_swap in candidates and len(candidates) > 1:
                    candidates = [c for c in candidates if c != last_swap]
                self._begin_scoring(candidates)
                scores = self._score_candidates(
                    candidates, front_gates, extended, qubit_pairs, layout
                )
                swap = self._choose_swap(candidates, scores, rng)

            if out is not None:
                label = self._swap_label(swap)
                gate_obj = make_gate("swap") if label is None else Gate("swap", (), None, label)
                position = out.append(gate_obj, swap)
                if label:
                    swap_labels[position] = label
            layout.swap_physical(*swap)
            self._decay[swap[0]] += DECAY_DELTA
            self._decay[swap[1]] += DECAY_DELTA
            num_swaps += 1
            stall_counter += 1
            last_swap = swap

        COUNTERS.inc("routing.swaps_inserted", num_swaps)
        return RoutingResult(
            dag=None,
            initial_layout=initial,
            final_layout=layout,
            num_swaps=num_swaps,
            swap_labels=swap_labels,
        )

    def _reset_routing_memos(self) -> None:
        """Hook: clear per-run scoring caches before a routing loop starts (no-op here)."""

    # ------------------------------------------------------------------
    # Gate execution
    # ------------------------------------------------------------------

    def _execute_ready_gates(
        self, frontier: StreamingDAG, layout: Layout, out: Optional[StreamingOutput]
    ) -> bool:
        """Run every gate executable under ``layout``; returns whether any ran.

        A gate runs when it is not a two-qubit gate or its qubits sit on a coupling
        edge; it is resolved and, when the run records its output, appended to ``out``
        on its physical qubits.  The front is walked once, in order: each gate is
        checked once, and ``resolve`` appends the gates it unlocks to the front's end,
        where the walk reaches them after the gates already waiting.  The layout cannot
        change while gates execute, so a blocked gate stays blocked, and the gates run
        in the order that rescanning the whole front until nothing runs would give.
        """
        front = frontier.front
        adjacent = self._adjacent
        l2p = layout.physical_array().tolist()
        blocked = 0  # the front's first ``blocked`` gates are checked and blocked
        executed_any = False
        while blocked < len(front):
            node = front[blocked]
            if node.two_qubit:
                a, b = node.qubits
                if not adjacent[l2p[a]][l2p[b]]:
                    blocked += 1
                    continue
            if out is not None:
                clbits = node.clbits
                if clbits and node.name == "barrier":
                    clbits = ()  # a barrier is routed on its qubits only
                out.append(node.gate, tuple([l2p[q] for q in node.qubits]), clbits)
            frontier.resolve(node)
            executed_any = True
        return executed_any

    # ------------------------------------------------------------------
    # SWAP selection
    # ------------------------------------------------------------------

    def _swap_candidates(self, front_gates: List[DAGNode], layout: Layout) -> List[Tuple[int, int]]:
        l2p = layout.physical_array()
        neighbors = self._neighbors
        candidates = set()
        for node in front_gates:
            for logical in node.qubits:
                physical = int(l2p[logical])
                for neighbor in neighbors[physical]:
                    if physical < neighbor:
                        candidates.add((physical, neighbor))
                    else:
                        candidates.add((neighbor, physical))
        return sorted(candidates)

    def _begin_scoring(self, candidates: List[Tuple[int, int]]) -> None:
        """Validate the candidate set and account for the upcoming scoring step."""
        if not candidates:
            raise TranspilerError("no SWAP candidates available (disconnected coupling map?)")
        COUNTERS.inc("routing.swap_candidates_scored", len(candidates))
        COUNTERS.inc("routing.swap_selections")

    def _choose_swap(
        self,
        candidates: List[Tuple[int, int]],
        scores: np.ndarray,
        rng: np.random.Generator,
    ) -> Tuple[int, int]:
        """Tie-broken argmin over the scored candidates (consumes one rng draw)."""
        values = scores.tolist()
        bound = min(values) + 1e-12
        ties = [index for index, value in enumerate(values) if value <= bound]
        return candidates[ties[int(rng.integers(len(ties)))]]

    def _score_candidates(
        self,
        candidates: Sequence[Tuple[int, int]],
        front_gates: List[DAGNode],
        extended: List[DAGNode],
        qubit_pairs: np.ndarray,
        layout: Layout,
    ) -> np.ndarray:
        """SABRE lookahead cost of every candidate in one vectorized evaluation.

        ``qubit_pairs`` holds the logical qubit pair of each gate of ``front_gates +
        extended`` as a column.  Entry ``[s, g]`` of the (candidates x gates) index
        tables is gate ``g``'s physical pair after virtually applying candidate swap
        ``s`` to the current layout — where the scoring kernel gathers distances.
        """
        pairs = np.asarray(candidates, dtype=np.intp).reshape(len(candidates), 2)
        c0, c1 = pairs[:, 0], pairs[:, 1]
        physical = layout.physical_array()[qubit_pairs]  # (2, G)
        s0 = c0[:, None, None]  # (S, 1, 1)
        s1 = c1[:, None, None]
        mapped = np.where(physical == s0, s1, np.where(physical == s1, s0, physical))
        front_raw, ext_raw = front_ext_sums(
            self.distance, mapped[:, 0], mapped[:, 1], len(front_gates)
        )
        return self._finalize_scores(
            candidates, c0, c1, front_raw, ext_raw, front_gates, extended
        )

    def _finalize_scores(
        self,
        candidates: Sequence[Tuple[int, int]],
        c0: np.ndarray,
        c1: np.ndarray,
        front_raw: np.ndarray,
        ext_raw: np.ndarray,
        front_gates: List[DAGNode],
        extended: List[DAGNode],
    ) -> np.ndarray:
        """Turn the kernel's raw (front, extended) sums into the SABRE cost array.

        Normalised front-layer distance plus weighted lookahead, scaled by the decay of
        the candidate's hotter qubit.  NASSC overrides this hook (not the kernel).
        """
        cost = front_raw / max(len(front_gates), 1)
        if extended:
            cost = cost + self.extended_set_weight * ext_raw / len(extended)
        decay = np.maximum(self._decay[c0], self._decay[c1])
        return decay * cost

    def _swap_label(self, swap: Tuple[int, int]) -> Optional[str]:
        """Hook: the label of a SWAP being recorded in the routed prefix.

        Optimization-aware SWAP decomposition labels come from here (fixed orientation
        in SABRE, whose runs without ``emit`` record no prefix and so take no label).
        """
        return None

    def _forced_swap(self, node: DAGNode, layout: Layout) -> Tuple[int, int]:
        """Deterministically move the first blocked gate one hop along a shortest path."""
        a, b = node.qubits
        pa, pb = layout.physical(a), layout.physical(b)
        path = self.coupling_map.shortest_path(pa, pb)
        return (min(path[0], path[1]), max(path[0], path[1]))


class SabreRouting(TransformationPass):
    """Transpiler pass wrapper around a built :class:`SabreSwapRouter` (or a subclass).

    The pass takes its name from the router's ``pass_name``, so the timing log reads
    ``SabreRouting`` or ``NASSCRouting`` by routing method.
    """

    def __init__(self, router: SabreSwapRouter) -> None:
        super().__init__()
        self.name = router.pass_name
        self.router = router

    def run(self, dag: DAGCircuit, property_set: PropertySet) -> DAGCircuit:
        layout = property_set.get("layout") or Layout.trivial(dag.num_qubits)
        result = self.router.route(dag, layout)
        property_set["final_layout"] = result.final_layout
        property_set["initial_layout"] = result.initial_layout
        property_set["num_swaps"] = result.num_swaps
        return result.dag


class SabreLayoutSelection(AnalysisPass):
    """SABRE-style initial layout: random start plus reverse-traversal refinement.

    This is the layout method the paper uses for both SABRE and NASSC (Sec. IV-A): route the
    circuit forward, use the final mapping as the initial mapping of the reversed circuit,
    route backward, and repeat.  ``router`` runs the sweeps, and its seed also draws the
    random start.  The refined layout is stored in ``property_set["layout"]``.
    """

    def __init__(self, router: SabreSwapRouter, *, iterations: int = 2) -> None:
        super().__init__()
        self.router = router
        self.iterations = iterations

    def run(self, dag: DAGCircuit, property_set: PropertySet) -> None:
        router = self.router
        layout = Layout.random(dag.num_qubits, router.coupling_map.num_qubits, seed=router.seed)
        traversals = layout_traversals(dag) if self.iterations > 0 else None
        if traversals is not None:
            layout = refine_layout(router, layout, self.iterations, traversals)
        property_set["layout"] = layout
