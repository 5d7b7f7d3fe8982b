"""Tests for the SABRE routing baseline."""

import numpy as np
import pytest

from repro.circuit import DAGCircuit, QuantumCircuit, random_cx_circuit
from repro.circuit.dag import StreamingDAG
from repro.core.nassc import NASSCSwapRouter
from repro.exceptions import TranspilerError
from repro.hardware import grid_coupling_map, linear_coupling_map
from repro.obs import COUNTERS
from repro.transpiler import PassManager, PropertySet
from repro.transpiler.passes import (
    Layout,
    SabreLayoutSelection,
    SabreRouting,
    SabreSwapRouter,
    coupling_violations,
)
from repro.transpiler.passes.sabre import (
    drive_steps,
    front_ext_sums,
    layout_traversals,
    refine_layout,
    whole_frontier,
)


def all_gates_mapped(circuit, coupling):
    return not coupling_violations(circuit, coupling)


class TestSabreSwapRouter:
    def test_already_mapped_circuit_needs_no_swaps(self, linear5):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        result = SabreSwapRouter(linear5, seed=0).route(circuit)
        assert result.num_swaps == 0
        assert result.circuit.cx_count() == 2

    def test_distant_gate_gets_swaps(self, linear5):
        circuit = QuantumCircuit(5)
        circuit.cx(0, 4)
        result = SabreSwapRouter(linear5, seed=0).route(circuit)
        assert result.num_swaps >= 3
        assert all_gates_mapped(result.circuit, linear5)

    def test_output_width_is_device_width(self, linear10):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        result = SabreSwapRouter(linear10, seed=1).route(circuit)
        assert result.circuit.num_qubits == 10

    def test_final_layout_tracks_swaps(self, linear5):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        result = SabreSwapRouter(linear5, seed=0).route(circuit)
        final_positions = {result.final_layout.physical(q) for q in range(3)}
        assert len(final_positions) == 3

    def test_gate_count_preserved_apart_from_swaps(self, grid9):
        circuit = random_cx_circuit(6, 20, seed=3)
        result = SabreSwapRouter(grid9, seed=3).route(circuit)
        assert result.circuit.cx_count() == 20
        assert result.circuit.count_gate("swap") == result.num_swaps

    def test_measures_and_barriers_routed(self, linear5):
        circuit = QuantumCircuit(3, 3)
        circuit.cx(0, 2)
        circuit.barrier()
        circuit.measure(0, 0)
        result = SabreSwapRouter(linear5, seed=0).route(circuit)
        assert result.circuit.count_gate("measure") == 1
        assert result.circuit.count_gate("barrier") == 1

    def test_respects_initial_layout(self, linear5):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        layout = Layout.from_physical_list([0, 4])
        result = SabreSwapRouter(linear5, seed=0).route(circuit, layout)
        assert result.num_swaps >= 3
        assert result.initial_layout.physical(1) == 4

    def test_rejects_oversized_circuit(self, linear5):
        with pytest.raises(TranspilerError):
            SabreSwapRouter(linear5).route(QuantumCircuit(6))

    def test_rejects_multi_qubit_gates(self, linear5):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        with pytest.raises(TranspilerError):
            SabreSwapRouter(linear5).route(circuit)

    def test_deterministic_for_fixed_seed(self, grid9):
        circuit = random_cx_circuit(7, 30, seed=9)
        first = SabreSwapRouter(grid9, seed=5).route(circuit)
        second = SabreSwapRouter(grid9, seed=5).route(circuit)
        assert first.num_swaps == second.num_swaps
        assert [i.qubits for i in first.circuit.data] == [i.qubits for i in second.circuit.data]

    @pytest.mark.parametrize("seed", range(4))
    def test_every_routed_gate_respects_coupling(self, seed, linear10):
        circuit = random_cx_circuit(8, 40, seed=seed)
        result = SabreSwapRouter(linear10, seed=seed).route(circuit)
        assert all_gates_mapped(result.circuit, linear10)

    def test_grid_uses_fewer_swaps_than_line_on_average(self):
        circuit = random_cx_circuit(9, 60, seed=13)
        line = SabreSwapRouter(linear_coupling_map(9), seed=0).route(circuit)
        grid = SabreSwapRouter(grid_coupling_map(3, 3), seed=0).route(circuit)
        assert grid.num_swaps <= line.num_swaps


class TestRoutingPasses:
    def test_sabre_routing_pass_sets_properties(self, linear5):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        props = PropertySet()
        routed = SabreRouting(SabreSwapRouter(linear5, seed=2)).run_circuit(circuit, props)
        assert "final_layout" in props and "num_swaps" in props
        assert all_gates_mapped(routed, linear5)

    def test_layout_selection_produces_valid_layout(self, grid9):
        circuit = random_cx_circuit(6, 15, seed=2)
        props = PropertySet()
        SabreLayoutSelection(SabreSwapRouter(grid9, seed=4)).run_circuit(circuit, props)
        layout = props["layout"]
        physical = {layout.physical(q) for q in range(6)}
        assert len(physical) == 6
        assert all(0 <= p < 9 for p in physical)

    def test_layout_selection_reduces_swaps_vs_random(self, grid9):
        circuit = random_cx_circuit(7, 40, seed=21)
        random_layout = Layout.random(7, 9, seed=0)
        baseline = SabreSwapRouter(grid9, seed=0).route(circuit, random_layout)
        props = PropertySet()
        selection = SabreLayoutSelection(SabreSwapRouter(grid9, seed=0), iterations=3)
        selection.run_circuit(circuit, props)
        refined = SabreSwapRouter(grid9, seed=0).route(circuit, props["layout"])
        assert refined.num_swaps <= baseline.num_swaps + 2

    def test_layout_selection_refines_a_random_start(self, grid9):
        # The pass is the shared refinement run from the router seed's random layout,
        # the same two steps every ensemble trial takes with its own seeds.
        circuit = random_cx_circuit(7, 40, seed=21)
        props = PropertySet()
        SabreLayoutSelection(SabreSwapRouter(grid9, seed=5), iterations=2).run_circuit(
            circuit, props
        )
        start = Layout.random(7, 9, seed=5)
        traversals = layout_traversals(DAGCircuit.from_circuit(circuit))
        refined = refine_layout(SabreSwapRouter(grid9, seed=5), start, 2, traversals)
        assert props["layout"].physical_array().tolist() == refined.physical_array().tolist()
        assert refined.physical_array().tolist() != start.physical_array().tolist()

    def test_layout_selection_handles_no_two_qubit_gates(self, linear5):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        props = PropertySet()
        SabreLayoutSelection(SabreSwapRouter(linear5, seed=1)).run_circuit(circuit, props)
        assert props["layout"].num_logical() == 3


class TestWireHistoryBound:
    """The router's per-wire position history is bounded (no growth on long circuits)."""

    def test_bound_dominates_estimator_scan_depths(self):
        """Bounding is exactly equivalent to unbounded history as long as the bound
        covers the deepest backward scan any estimator performs (one merged position is
        consumed per yield, at most one per wire)."""
        from repro.core.estimators import MAX_BLOCK_GATES, MAX_COMMUTE_SCAN
        from repro.transpiler.passes.sabre import WIRE_HISTORY_BOUND

        assert WIRE_HISTORY_BOUND >= MAX_COMMUTE_SCAN + 1
        assert WIRE_HISTORY_BOUND >= MAX_BLOCK_GATES + 1

    @pytest.mark.parametrize("router_factory", [
        lambda coupling: SabreSwapRouter(coupling, seed=0),
        lambda coupling: __import__("repro.core.nassc", fromlist=["NASSCSwapRouter"])
        .NASSCSwapRouter(coupling, seed=0),
    ], ids=["sabre", "nassc"])
    def test_history_stays_bounded_on_10k_gate_circuit(self, router_factory):
        from repro.circuit.random import random_circuit
        from repro.transpiler.passes.sabre import WIRE_HISTORY_BOUND

        circuit = random_circuit(
            10, 1450, seed=7, two_qubit_prob=0.4, gate_names=("cx", "cz", "swap")
        )
        assert len(circuit.data) >= 10000
        coupling = linear_coupling_map(10)
        router = router_factory(coupling)
        result = router.route(circuit)
        assert result.num_swaps > 0
        lengths = [len(history) for history in router._out.wire_history.values()]
        assert max(lengths) <= WIRE_HISTORY_BOUND
        # Every wire saw far more operations than it retains.
        assert len(result.dag) > 10000


def _random_tables(rng, n, rows, cols):
    return (
        rng.integers(0, n, size=(rows, cols)),
        rng.integers(0, n, size=(rows, cols)),
    )


class TestNumpyKernel:
    """The shared (front, extended) distance-sum kernel behind candidate scoring."""

    def test_matches_scalar_reference(self):
        # Both windows wider than numpy's 8-element pairwise-summation block (the
        # extended set alone holds 20 gates), so a pairwise ``sum()`` would show up in
        # the last bits.
        rng = np.random.default_rng(1)
        n = 7
        distance = np.ascontiguousarray(np.abs(rng.normal(size=(n, n))))
        rows, cols, front_cols = 5, 32, 12
        a, b = _random_tables(rng, n, rows=rows, cols=cols)
        front, ext = front_ext_sums(distance, a, b, front_cols=front_cols)
        for row in range(rows):
            want_front = 0.0
            for col in range(front_cols):
                want_front += distance[a[row, col], b[row, col]]
            want_ext = 0.0
            for col in range(front_cols, cols):
                want_ext += distance[a[row, col], b[row, col]]
            assert front[row] == want_front
            assert ext[row] == want_ext

    def test_all_front_or_all_ext(self):
        rng = np.random.default_rng(2)
        distance = np.ascontiguousarray(np.abs(rng.normal(size=(5, 5))))
        a, b = _random_tables(rng, 5, rows=3, cols=4)
        front, ext = front_ext_sums(distance, a, b, front_cols=4)
        assert np.all(ext == 0.0)
        front2, ext2 = front_ext_sums(distance, a, b, front_cols=0)
        assert np.all(front2 == 0.0)
        assert ext2.tobytes() == front.tobytes()


class TestScoringTables:
    """The per-frontier-state scoring tables follow the front even when it grows
    without a version bump."""

    @pytest.mark.parametrize(
        "router_cls", [SabreSwapRouter, NASSCSwapRouter], ids=["sabre", "nassc"]
    )
    def test_requests_follow_a_front_grown_by_lookahead_spill(self, router_cls):
        # A one-gate window: the lookahead spill admits cx(4, 7) — no predecessors, not
        # executable — into the front while the router is still between resolves.
        circuit = QuantumCircuit(8)
        circuit.cx(0, 3)
        circuit.cx(0, 3)
        circuit.cx(4, 7)
        for q in range(7):
            circuit.cx(q, q + 1)
        frontier = StreamingDAG(circuit.data, 8, window_gates=1)

        def two_qubit_front():
            return [node for node in frontier.front if node.is_two_qubit()]

        # A step computes its front before the lookahead (which may grow the front); a
        # step that runs no lookahead sees the front the previous step left behind.
        seen = {}
        lookahead = frontier.lookahead

        def recording_lookahead(size, **kwargs):
            seen["front"] = two_qubit_front()
            return lookahead(size, **kwargs)

        frontier.lookahead = recording_lookahead
        router = router_cls(linear_coupling_map(8), seed=0)
        score = router._score_candidates
        grown = 0

        def recording_score(candidates, front_gates, extended, qubit_pairs, layout):
            nonlocal grown
            assert front_gates == seen["front"]
            pairs = [list(node.qubits) for node in front_gates + extended]
            assert qubit_pairs.T.tolist() == pairs
            if two_qubit_front() != seen["front"]:
                grown += 1
                seen["front"] = two_qubit_front()
            return score(candidates, front_gates, extended, qubit_pairs, layout)

        router._score_candidates = recording_score
        drive_steps(router.route_steps(frontier, Layout.trivial(8)))
        assert grown > 0


def _recording_steps(router, circuit, layout):
    """``router.route_steps`` over ``circuit``, and the list its ``emit`` appends to."""
    emitted = []
    frontier = whole_frontier(circuit.data, circuit.num_qubits)
    steps = router.route_steps(frontier, layout, emit=lambda position, op: emitted.append(op))
    return steps, emitted


class TestRouteSteps:
    """What ``route_steps`` yields: the running SWAP count at each scoring point."""

    @pytest.mark.parametrize(
        "router_cls", [SabreSwapRouter, NASSCSwapRouter], ids=["sabre", "nassc"]
    )
    def test_yields_the_swaps_already_emitted(self, router_cls):
        circuit = random_cx_circuit(7, 50, seed=3)
        router = router_cls(grid_coupling_map(3, 3), seed=1)
        steps, emitted = _recording_steps(router, circuit, Layout.random(7, 9, seed=2))
        selections = COUNTERS.get("routing.swap_selections")
        yielded = []
        while True:
            try:
                count = next(steps)
            except StopIteration as stop:
                result = stop.value
                break
            # The count is taken before the step scores: every SWAP it reports is
            # already out, and the SWAP this step picks is not.
            assert count == sum(op.name == "swap" for op in emitted)
            yielded.append(count)
        assert yielded and yielded[0] == 0
        # Each scoring point inserts one SWAP before the next one is reached.
        assert all(a < b for a, b in zip(yielded, yielded[1:]))
        assert yielded[-1] < result.num_swaps
        assert result.num_swaps == sum(op.name == "swap" for op in emitted)
        assert COUNTERS.get("routing.swap_selections") - selections == len(yielded)

    def test_closing_at_a_scoring_point_stops_the_run(self):
        # How the ensemble stops a trial that has fallen behind: nothing is emitted
        # after the close, and the run's SWAPs are never counted as inserted.
        circuit = random_cx_circuit(7, 50, seed=3)
        steps, emitted = _recording_steps(
            SabreSwapRouter(grid_coupling_map(3, 3), seed=1), circuit,
            Layout.random(7, 9, seed=2),
        )
        inserted = COUNTERS.get("routing.swaps_inserted")
        while next(steps) < 3:
            pass
        emitted_at_close = len(emitted)
        steps.close()
        with pytest.raises(StopIteration):
            next(steps)
        assert len(emitted) == emitted_at_close
        assert COUNTERS.get("routing.swaps_inserted") == inserted


def _reference_is_executable(router, node, layout):
    if node.name == "barrier" or not node.gate.is_unitary or len(node.qubits) == 1:
        return True
    a, b = node.qubits
    l2p = layout.physical_array()
    return router._adjacent[l2p[a]][l2p[b]]


def _reference_execute_ready_gates(router, frontier, layout, out):
    """The full-rescan ready-gate loop: rescan a copy of the whole front, executing every
    executable gate, until a pass executes nothing."""
    executed_any = False
    progress = True
    while progress:
        progress = False
        for node in list(frontier.front):
            if _reference_is_executable(router, node, layout):
                if out is not None:
                    l2p = layout.physical_array()
                    physical = tuple(int(l2p[q]) for q in node.qubits)
                    if node.name == "barrier":
                        out.append(node.gate, physical)
                    else:
                        out.append(node.gate, physical, node.clbits)
                frontier.resolve(node)
                progress = True
                executed_any = True
    return executed_any


class _ReferenceLoop:
    """The full-rescan ready-gate loop and the array-based tie break, as a router mixin."""

    def _execute_ready_gates(self, frontier, layout, out):
        return _reference_execute_ready_gates(self, frontier, layout, out)

    def _choose_swap(self, candidates, scores, rng):
        best = scores.min()
        best_indices = np.flatnonzero(scores <= best + 1e-12)
        return candidates[int(best_indices[int(rng.integers(len(best_indices)))])]


class _ReferenceSabre(_ReferenceLoop, SabreSwapRouter):
    pass


class _ReferenceNASSC(_ReferenceLoop, NASSCSwapRouter):
    pass


def _circuit_with_directives(num_qubits, depth, seed):
    """A random circuit with barriers and mid-circuit measures between its gates."""
    from repro.circuit.random import random_circuit

    rng = np.random.default_rng(seed)
    source = random_circuit(num_qubits, depth, seed=seed, two_qubit_prob=0.6)
    circuit = QuantumCircuit(num_qubits, num_qubits)
    for inst in source.data:
        circuit.append(inst.gate, inst.qubits)
        draw = rng.random()
        if draw < 0.04:
            circuit.barrier()
        elif draw < 0.1:
            qubits = rng.choice(num_qubits, size=int(rng.integers(1, 4)), replace=False)
            circuit.barrier(*sorted(int(q) for q in qubits))
        elif draw < 0.14:
            q = int(rng.integers(num_qubits))
            circuit.measure(q, int(rng.integers(num_qubits)))
    circuit.measure_all()
    return circuit


def _routed(router_cls, circuit, coupling, window, seed):
    """(emitted ops, RoutingResult fields) of one routing run over ``circuit``."""
    if window is None:
        frontier = whole_frontier(circuit.data, circuit.num_qubits, circuit.num_clbits)
    else:
        frontier = StreamingDAG(
            iter(circuit.data), circuit.num_qubits, circuit.num_clbits, window_gates=window
        )
    emitted = []

    def emit(position, op):
        gate = op.gate
        emitted.append((position, gate.name, gate.params, gate.label, op.qubits, op.clbits))

    layout = Layout.random(circuit.num_qubits, coupling.num_qubits, seed=seed)
    router = router_cls(coupling, seed=seed)
    result = drive_steps(router.route_steps(frontier, layout, emit=emit))
    fields = (
        result.initial_layout.to_pairs(),
        result.final_layout.to_pairs(),
        result.num_swaps,
        result.swap_labels,
    )
    return emitted, fields


class TestReadyGateExecution:
    """The incremental ready-gate loop runs gates exactly as full front rescans do."""

    @pytest.mark.parametrize("window", [None, 1, 8], ids=["whole", "window1", "window8"])
    @pytest.mark.parametrize(
        "router_cls,reference_cls",
        [(SabreSwapRouter, _ReferenceSabre), (NASSCSwapRouter, _ReferenceNASSC)],
        ids=["sabre", "nassc"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_full_rescan_reference(self, router_cls, reference_cls, window, seed):
        circuit = _circuit_with_directives(7, 14, seed)
        coupling = grid_coupling_map(3, 3)
        emitted, fields = _routed(router_cls, circuit, coupling, window, seed)
        want_emitted, want_fields = _routed(reference_cls, circuit, coupling, window, seed)
        assert fields[2] > 0
        assert any(op[1] == "barrier" for op in emitted)
        assert any(op[1] == "measure" for op in emitted)
        assert emitted == want_emitted
        assert fields == want_fields


class TestLayoutSweepOutput:
    """A sweep with no ``emit`` records its routed prefix only when scoring reads it."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_output_free_sabre_sweep_matches_a_recording_sweep(self, seed):
        circuit = random_cx_circuit(8, 60, seed=seed)
        coupling = grid_coupling_map(3, 3)
        forward, backward = layout_traversals(DAGCircuit.from_circuit(circuit))
        layout = Layout.random(8, 9, seed=seed)
        for frontier in (forward, backward):
            router = SabreSwapRouter(coupling, seed=seed)
            free = drive_steps(router.route_steps(frontier.copy(), layout))
            assert router._out is None
            recorded = []
            recording = drive_steps(
                router.route_steps(
                    frontier.copy(), layout, emit=lambda position, op: recorded.append(op)
                )
            )
            assert recorded and router._out is not None
            assert free.num_swaps == recording.num_swaps > 0
            assert free.final_layout == recording.final_layout
            layout = free.final_layout

    def test_nassc_sweep_records_the_source_gates(self):
        circuit = random_cx_circuit(6, 30, seed=4)
        dag = DAGCircuit.from_circuit(circuit)
        forward, _ = layout_traversals(dag)
        router = NASSCSwapRouter(linear_coupling_map(6), seed=4)
        drive_steps(router.route_steps(forward.copy(), Layout.trivial(6)))
        assert router._out is not None and len(router._out) > len(dag)
        source_gates = {id(node.gate) for node in dag.op_nodes()}
        routed = [op for op in router._out.data.values() if op.name != "swap"]
        assert routed and all(id(op.gate) in source_gates for op in routed)
