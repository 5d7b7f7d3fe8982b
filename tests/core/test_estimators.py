"""Tests for the NASSC CNOT-reduction estimators (C2q, Ccommute1, Ccommute2)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import QuantumCircuit
from repro.circuit.circuit import Instruction
from repro.circuit.gates import Gate, gate as make_gate
from repro.core import estimators
from repro.core.estimators import (
    MAX_BLOCK_GATES,
    MAX_COMMUTE_SCAN,
    OptimizationEstimator,
    SwapEstimate,
)
from repro.core.nassc import NASSCConfig
from repro.synthesis.two_qubit import cnot_count_from_coordinates, weyl_coordinates
from repro.transpiler.passes.commutation import gates_commute
from repro.transpiler.passes.swap_lowering import swap_orientation
from repro.transpiler.passes.unitary_synthesis import block_matrix


def make_history(circuit):
    history = {q: [] for q in range(circuit.num_qubits)}
    for pos, inst in enumerate(circuit.data):
        for q in inst.qubits:
            history[q].append(pos)
    return history


# ---------------------------------------------------------------------------
# Reference estimator: three independent generator walks, no memo tables
# ---------------------------------------------------------------------------


def merged_backward(out, wire_history, p0, p1):
    """Output positions touching ``p0`` or ``p1``, newest first (no duplicates)."""
    i0 = len(wire_history[p0]) - 1
    i1 = len(wire_history[p1]) - 1
    while i0 >= 0 or i1 >= 0:
        pos0 = wire_history[p0][i0] if i0 >= 0 else -1
        pos1 = wire_history[p1][i1] if i1 >= 0 else -1
        pos = max(pos0, pos1)
        if pos < 0:
            return
        if pos == pos0:
            i0 -= 1
        if pos == pos1:
            i1 -= 1
        yield pos, out.data[pos]


def reference_c2q(out, wire_history, p0, p1):
    block = []
    for pos, inst in merged_backward(out, wire_history, p0, p1):
        if len(block) >= MAX_BLOCK_GATES:
            break
        if (not inst.gate.is_unitary) or inst.name == "barrier":
            break
        if not set(inst.qubits) <= {p0, p1}:
            break
        block.append(pos)
    block.sort()
    if not any(len(out.data[pos].qubits) == 2 for pos in block):
        return 0
    local = QuantumCircuit(2)
    for pos in block:
        inst = out.data[pos]
        local.append(inst.gate.copy(), tuple({p0: 0, p1: 1}[q] for q in inst.qubits))
    matrix = local.to_matrix()
    before = cnot_count_from_coordinates(weyl_coordinates(matrix))
    after = cnot_count_from_coordinates(
        weyl_coordinates(estimators._SWAP_MATRIX @ matrix)
    )
    return int(max(0, min(3, 3 - (after - before))))


def reference_scan(out, wire_history, p0, p1, control, target):
    probe = Instruction(make_gate("cx"), (control, target))
    scanned = 0
    for _, inst in merged_backward(out, wire_history, p0, p1):
        if scanned >= MAX_COMMUTE_SCAN:
            break
        scanned += 1
        if (not inst.gate.is_unitary) or inst.name == "barrier":
            return False, False
        if len(inst.qubits) == 1:
            continue
        if inst.name == "cx" and set(inst.qubits) == {p0, p1}:
            return inst.qubits == (control, target), False
        if inst.name == "swap" and set(inst.qubits) == {p0, p1}:
            return False, swap_orientation(inst.gate.label, inst.qubits) == control
        if gates_commute(inst, probe):
            continue
        return False, False
    return False, False


def reference_estimate(out, wire_history, p0, p1, config):
    enable_2q, enable_commute1, enable_commute2 = config.as_tuple()
    estimate = SwapEstimate()
    if enable_2q:
        estimate.c2q = reference_c2q(out, wire_history, p0, p1)
    if enable_commute1 or enable_commute2:
        commute1, commute2, orientation = 0, 0, None
        for control, target in ((p0, p1), (p1, p0)):
            found_cx, found_swap = reference_scan(out, wire_history, p0, p1, control, target)
            if found_cx:
                commute1, orientation = 2, control
                break
            if found_swap:
                commute2, orientation = 2, control
                break
        estimate.ccommute1 = commute1 if enable_commute1 else 0
        estimate.ccommute2 = commute2 if enable_commute2 else 0
        if estimate.ccommute1 or estimate.ccommute2:
            estimate.orientation = orientation
    return estimate


#: Routed-prefix ops over 4 qubits: single-qubit runs, CNOTs, CZs, plain and labelled
#: swaps, barriers and measures.
_PREFIX_OPS = st.one_of(
    st.tuples(st.sampled_from(["h", "x", "sx", "t", "s"]), st.integers(0, 3)),
    st.tuples(st.just("rz"), st.integers(0, 3), st.sampled_from([0.3, 1.1, -2.0])),
    st.tuples(st.sampled_from(["cx", "cx", "cx", "cz", "swap"]),
              st.permutations(range(4)).map(lambda q: tuple(q[:2]))),
    st.tuples(st.just("labelled_swap"), st.permutations(range(4)).map(lambda q: tuple(q[:2])),
              st.booleans()),
    st.tuples(st.just("barrier"), st.sets(st.integers(0, 3), min_size=1)),
    st.tuples(st.just("measure"), st.integers(0, 3)),
)


def _build_prefix(ops):
    circuit = QuantumCircuit(4, 4)
    for op in ops:
        name = op[0]
        if name == "rz":
            circuit.append(make_gate("rz", op[2]), (op[1],))
        elif name in ("cx", "cz", "swap"):
            circuit.append(make_gate(name), op[1])
        elif name == "labelled_swap":
            a, b = op[1]
            circuit.append(Gate("swap", (), None, f"ctrl:{a if op[2] else b}"), (a, b))
        elif name == "barrier":
            circuit.barrier(*sorted(op[1]))
        elif name == "measure":
            circuit.measure(op[1], op[1])
        else:
            circuit.append(make_gate(name), (op[1],))
    return circuit


class TestTrailingBlock:
    def test_collects_contiguous_pair_gates(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.rz(0.3, 1)
        circuit.cx(0, 1)
        estimator = OptimizationEstimator()
        block = estimator.trailing_block(circuit, make_history(circuit), 0, 1)
        assert block == [0, 1, 2]

    def test_stops_at_foreign_qubit_gate(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        estimator = OptimizationEstimator()
        block = estimator.trailing_block(circuit, make_history(circuit), 0, 1)
        assert block == []

    def test_stops_at_barrier(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.barrier()
        estimator = OptimizationEstimator()
        assert estimator.trailing_block(circuit, make_history(circuit), 0, 1) == []

    def test_empty_wires(self):
        circuit = QuantumCircuit(2)
        estimator = OptimizationEstimator()
        assert estimator.trailing_block(circuit, make_history(circuit), 0, 1) == []


class TestC2q:
    def test_single_cx_block_gives_reduction_two(self):
        # cx + swap re-synthesises to 2 CNOTs instead of 1 + 3: reduction = 2 (paper Fig. 1b).
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        estimator = OptimizationEstimator()
        assert estimator.estimate_c2q(circuit, make_history(circuit), 0, 1) == 2

    def test_three_cnot_block_gives_full_reduction(self):
        # Once the trailing block already needs three CNOTs the SWAP is free (reduction 3).
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.rz(0.4, 0)
        circuit.ry(0.7, 1)
        circuit.cx(1, 0)
        circuit.rz(1.1, 1)
        circuit.cx(0, 1)
        estimator = OptimizationEstimator()
        assert estimator.estimate_c2q(circuit, make_history(circuit), 0, 1) == 3

    def test_no_block_gives_zero(self):
        circuit = QuantumCircuit(3)
        circuit.cx(1, 2)
        estimator = OptimizationEstimator()
        assert estimator.estimate_c2q(circuit, make_history(circuit), 0, 1) == 0

    def test_only_single_qubit_gates_gives_zero(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.t(1)
        estimator = OptimizationEstimator()
        assert estimator.estimate_c2q(circuit, make_history(circuit), 0, 1) == 0

    def test_cache_reused(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        estimator = OptimizationEstimator()
        history = make_history(circuit)
        estimator.estimate_c2q(circuit, history, 0, 1)
        size_before = len(estimator._count_cache)
        estimator.estimate_c2q(circuit, history, 0, 1)
        assert len(estimator._count_cache) == size_before


class TestCommutationEstimates:
    def test_cancellable_cx_found(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        estimator = OptimizationEstimator()
        c1, c2, orientation = estimator.estimate_commutation(circuit, make_history(circuit), 0, 1)
        assert c1 == 2 and c2 == 0
        assert orientation == 0

    def test_orientation_follows_cx_direction(self):
        circuit = QuantumCircuit(2)
        circuit.cx(1, 0)
        estimator = OptimizationEstimator()
        _, _, orientation = estimator.estimate_commutation(circuit, make_history(circuit), 0, 1)
        assert orientation == 1

    def test_single_qubit_gates_are_skipped(self):
        # Single-qubit gates before the SWAP are moved through it, so they do not block.
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.rz(0.3, 0)
        circuit.h(1)
        estimator = OptimizationEstimator()
        c1, _, orientation = estimator.estimate_commutation(circuit, make_history(circuit), 0, 1)
        assert c1 == 2 and orientation == 0

    def test_commuting_cx_does_not_block(self):
        # A CNOT sharing the target commutes with the SWAP's first CNOT (paper Fig. 4).
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(2, 1)
        estimator = OptimizationEstimator()
        c1, _, orientation = estimator.estimate_commutation(circuit, make_history(circuit), 0, 1)
        assert c1 == 2 and orientation == 0

    def test_non_commuting_gate_blocks(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)  # does not commute with cx(0,1) and touches qubit 1
        estimator = OptimizationEstimator()
        c1, c2, orientation = estimator.estimate_commutation(circuit, make_history(circuit), 0, 1)
        assert c1 == 0 and c2 == 0

    def test_previous_swap_detected_for_ccommute2(self):
        circuit = QuantumCircuit(3)
        circuit.swap(0, 1)
        circuit.cx(0, 2)  # commutes with cx(0,1) (shared control)
        estimator = OptimizationEstimator()
        c1, c2, orientation = estimator.estimate_commutation(circuit, make_history(circuit), 0, 1)
        assert c1 == 0 and c2 == 2
        assert orientation == 0

    def test_empty_circuit_gives_zero(self):
        circuit = QuantumCircuit(2)
        estimator = OptimizationEstimator()
        assert estimator.estimate_commutation(circuit, make_history(circuit), 0, 1) == (0, 0, None)


class TestFullEstimate:
    def test_enable_flags_respected(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        estimator = OptimizationEstimator()
        history = make_history(circuit)
        full = estimator.estimate(circuit, history, 0, 1)
        assert full.c2q == 2 and full.ccommute1 == 2
        disabled = estimator.estimate(
            circuit, history, 0, 1, enable_2q=False, enable_commute1=False, enable_commute2=False
        )
        assert disabled.total() == 0

    def test_total_respects_flags(self):
        estimate = SwapEstimate(c2q=2, ccommute1=2, ccommute2=0)
        assert estimate.total() == 4
        assert estimate.total(enable_2q=False) == 2
        assert estimate.total(enable_commute1=False) == 2


class TestSinglePassMatchesReference:
    """One shared lazy walk gives what three independent generator walks give."""

    @settings(max_examples=150, deadline=None)
    @given(
        ops=st.lists(_PREFIX_OPS, max_size=30),
        pair=st.permutations(range(4)).map(lambda q: tuple(q[:2])),
    )
    def test_estimate_matches_reference_walk(self, ops, pair):
        circuit = _build_prefix(ops)
        history = make_history(circuit)
        estimator = OptimizationEstimator()
        for config in NASSCConfig.all_combinations():
            flags = config.as_tuple()
            got = estimator.estimate(
                circuit, history, *pair,
                enable_2q=flags[0], enable_commute1=flags[1], enable_commute2=flags[2],
            )
            assert got == reference_estimate(circuit, history, *pair, config), config

    def test_block_stops_at_max_block_gates(self):
        # The cx sits just beyond the newest MAX_BLOCK_GATES single-qubit gates, so the
        # block the SWAP would join holds no two-qubit gate.
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        for index in range(MAX_BLOCK_GATES):
            circuit.h(index % 2)
        history = make_history(circuit)
        estimator = OptimizationEstimator()
        assert estimator.trailing_block(circuit, history, 0, 1) == list(
            range(1, MAX_BLOCK_GATES + 1)
        )
        assert estimator.estimate_c2q(circuit, history, 0, 1) == 0
        assert reference_c2q(circuit, history, 0, 1) == 0

    @settings(max_examples=100, deadline=None)
    @given(
        block=st.lists(
            st.one_of(
                st.tuples(st.sampled_from(["h", "y", "sx", "t"]), st.sampled_from([(0,), (1,)])),
                st.tuples(st.just("ry"), st.sampled_from([(0,), (1,)]),
                          st.sampled_from([0.7, -1.3])),
                st.tuples(st.sampled_from(["cx", "swap"]), st.sampled_from([(0, 1), (1, 0)])),
            ),
            min_size=1, max_size=MAX_BLOCK_GATES,
        ),
        pair=st.sampled_from([(2, 3), (3, 2)]),
    )
    def test_block_matrix_is_the_circuit_matrix(self, block, pair):
        # Bit-identical to ``QuantumCircuit.to_matrix()`` of the block on local wires.
        local = QuantumCircuit(2)
        ops = []
        for op in block:
            gate_obj = make_gate(op[0], *op[2:])
            local.append(gate_obj, op[1])
            ops.append(Instruction(gate_obj, tuple(pair[q] for q in op[1])))
        got = block_matrix(ops, pair)
        assert np.array_equal(got, local.to_matrix())

    def test_long_prefix_reaches_both_scan_limits(self):
        # Commuting gates deeper than both scan limits: cx(0, 2) shares the probe's
        # control, so the cancellable cx(0, 1) beyond MAX_COMMUTE_SCAN stays unseen.
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        for _ in range(MAX_COMMUTE_SCAN):
            circuit.cx(0, 2)
        history = make_history(circuit)
        got = OptimizationEstimator().estimate(circuit, history, 0, 1)
        assert got == reference_estimate(circuit, history, 0, 1, NASSCConfig())
        assert got.ccommute1 == 0


class TestCxProbeVerdicts:
    def test_matches_gates_commute_on_every_wire_pattern(self):
        estimator = OptimizationEstimator()
        qubits = range(4)
        for _ in range(2):  # the second pass is served from the filled table
            for control, target in itertools.permutations(qubits, 2):
                probe = Instruction(make_gate("cx"), (control, target))
                for name in ("cx", "swap"):
                    for wires in itertools.permutations(qubits, 2):
                        inst = Instruction(make_gate(name), wires)
                        assert estimator._commutes_with_cx(inst, control, target) == (
                            gates_commute(inst, probe)
                        ), (name, wires, control, target)
        assert len(estimator._cx_probe_verdicts) <= 2 * 3 * 3


class TestCountCacheBound:
    def test_miss_on_a_full_cache_returns_its_count(self, monkeypatch):
        monkeypatch.setattr(estimators, "COUNT_CACHE_MAX", 3)
        full = {("old", i): 0 for i in range(3)}
        monkeypatch.setattr(OptimizationEstimator, "_count_cache", full)
        cx = np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
        )
        count = OptimizationEstimator()._cached_count(("new",), lambda: cx)
        assert count == 1
        assert len(OptimizationEstimator._count_cache) <= 3
