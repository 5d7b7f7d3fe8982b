"""Tests for commutation analysis and commutative cancellation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import DAGCircuit, Instruction, QuantumCircuit, gate, random_circuit
from repro.transpiler import PassManager, PropertySet
from repro.transpiler.passes import (
    CommutationAnalysis,
    CommutativeCancellation,
    RemoveIdentities,
    gates_commute,
)

from ..conftest import assert_unitary_equiv


def _inst(name, qubits, *params):
    return Instruction(gate(name, *params), qubits)


class TestGatesCommute:
    def test_disjoint_supports_commute(self):
        assert gates_commute(_inst("x", (0,)), _inst("h", (1,)))
        assert gates_commute(_inst("cx", (0, 1)), _inst("cx", (2, 3)))

    def test_cx_sharing_control_commute(self):
        assert gates_commute(_inst("cx", (0, 1)), _inst("cx", (0, 2)))

    def test_cx_sharing_target_commute(self):
        assert gates_commute(_inst("cx", (0, 2)), _inst("cx", (1, 2)))

    def test_cx_chained_do_not_commute(self):
        assert not gates_commute(_inst("cx", (0, 1)), _inst("cx", (1, 2)))

    def test_identical_cx_commute(self):
        assert gates_commute(_inst("cx", (0, 1)), _inst("cx", (0, 1)))

    def test_rz_commutes_with_cx_control(self):
        assert gates_commute(_inst("rz", (0,), 0.5), _inst("cx", (0, 1)))

    def test_rz_does_not_commute_with_cx_target(self):
        assert not gates_commute(_inst("rz", (1,), 0.5), _inst("cx", (0, 1)))

    def test_x_commutes_with_cx_target(self):
        assert gates_commute(_inst("x", (1,)), _inst("cx", (0, 1)))

    def test_h_does_not_commute_with_cx(self):
        assert not gates_commute(_inst("h", (0,)), _inst("cx", (0, 1)))

    def test_diagonal_gates_commute(self):
        assert gates_commute(_inst("cz", (0, 1)), _inst("rz", (1,), 0.3))
        assert gates_commute(_inst("cp", (0, 1), 0.4), _inst("cz", (1, 2)))

    def test_directives_never_commute(self):
        assert not gates_commute(_inst("measure", (0,)), _inst("x", (0,)))

    def test_matrix_fallback_crx(self):
        # crx commutes with an x on its target but not with an x on its control.
        assert gates_commute(_inst("crx", (0, 1), 0.7), _inst("x", (1,)))
        assert not gates_commute(_inst("crx", (0, 1), 0.7), _inst("x", (0,)))


class TestCommutationAnalysis:
    def test_commuting_cx_grouped_together(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(0, 2)
        circuit.cx(0, 1)
        props = PropertySet()
        CommutationAnalysis().run_circuit(circuit, props)
        index = props["commutation_index"]
        assert index[(0, 0)] == index[(0, 1)] == index[(0, 2)]

    def test_non_commuting_split(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.h(0)
        circuit.cx(0, 1)
        props = PropertySet()
        CommutationAnalysis().run_circuit(circuit, props)
        index = props["commutation_index"]
        assert index[(0, 0)] != index[(0, 2)]

    def test_directives_split_sets(self):
        circuit = QuantumCircuit(1, 1)
        circuit.rz(0.1, 0)
        circuit.measure(0, 0)
        circuit.rz(0.2, 0)
        props = PropertySet()
        CommutationAnalysis().run_circuit(circuit, props)
        index = props["commutation_index"]
        assert index[(0, 0)] != index[(0, 2)]

    def test_large_sets_are_split_conservatively(self):
        circuit = QuantumCircuit(1)
        for _ in range(50):
            circuit.rz(0.01, 0)
        props = PropertySet()
        CommutationAnalysis().run_circuit(circuit, props)
        sets = props["commutation_sets"][0]
        assert all(len(group) <= CommutationAnalysis.MAX_SET_SIZE for group in sets)


class TestCommutativeCancellation:
    def run_pass(self, circuit):
        return PassManager([CommutativeCancellation()]).run(circuit)

    def test_adjacent_cx_pair_cancels(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        assert self.run_pass(circuit).cx_count() == 0

    def test_cx_cancel_through_commuting_gate(self):
        # The paper's Fig. 4: the CNOTs commute through a CNOT sharing the same target.
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        circuit.cx(1, 2)
        circuit.cx(0, 2)
        optimized = self.run_pass(circuit)
        assert optimized.cx_count() == 1
        assert_unitary_equiv(circuit, optimized)

    def test_cx_blocked_by_non_commuting_gate(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.h(1)
        circuit.cx(0, 1)
        assert self.run_pass(circuit).cx_count() == 2

    def test_odd_number_keeps_one(self):
        circuit = QuantumCircuit(2)
        for _ in range(3):
            circuit.cx(0, 1)
        optimized = self.run_pass(circuit)
        assert optimized.cx_count() == 1
        assert_unitary_equiv(circuit, optimized)

    def test_single_qubit_self_inverse_cancel(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        circuit.h(0)
        circuit.x(0)
        circuit.x(0)
        assert self.run_pass(circuit).size() == 0

    def test_rz_rotations_merge(self):
        circuit = QuantumCircuit(2)
        circuit.rz(0.25, 0)
        circuit.cx(0, 1)  # rz on the control commutes through
        circuit.rz(0.5, 0)
        optimized = self.run_pass(circuit)
        rz_gates = [inst for inst in optimized.data if inst.name == "rz"]
        assert len(rz_gates) == 1
        assert rz_gates[0].gate.params[0] == pytest.approx(0.75)
        assert_unitary_equiv(circuit, optimized)

    def test_cz_symmetric_cancellation(self):
        circuit = QuantumCircuit(2)
        circuit.cz(0, 1)
        circuit.cz(1, 0)
        optimized = self.run_pass(circuit)
        assert optimized.count_gate("cz") == 0
        assert_unitary_equiv(circuit, optimized)

    def test_swap_lowered_plus_cx_scenario(self):
        # CNOT followed by an adjacent SWAP lowered with matching orientation loses one CNOT.
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        circuit.cx(1, 0)
        circuit.cx(0, 1)
        optimized = self.run_pass(circuit)
        assert optimized.cx_count() == 2
        assert_unitary_equiv(circuit, optimized)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_preserves_unitary(self, seed):
        circuit = random_circuit(4, 6, seed=seed)
        optimized = self.run_pass(circuit)
        assert_unitary_equiv(circuit, optimized)
        assert optimized.cx_count() <= circuit.cx_count()


@st.composite
def rewritable_circuits(draw):
    """Random circuits with barriers, measures, cancelling CX pairs and zero rotations."""
    num_qubits = draw(st.integers(2, 4))
    circuit = QuantumCircuit(num_qubits, num_qubits)
    qubit = st.integers(0, num_qubits - 1)
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(("1q", "zero", "cx", "cx_pair", "barrier", "measure")))
        if kind == "1q":
            name = draw(st.sampled_from(("h", "x", "z", "t", "s", "sx", "rz", "rx")))
            params = (draw(st.sampled_from((0.25, -0.25, np.pi))),) if name in ("rz", "rx") else ()
            circuit.append(gate(name, *params), [draw(qubit)])
        elif kind == "zero":
            name = draw(st.sampled_from(("rz", "rx", "p", "id")))
            circuit.append(gate(name, *(() if name == "id" else (0.0,))), [draw(qubit)])
        elif kind in ("cx", "cx_pair"):
            control, target = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            for _ in range(1 if kind == "cx" else 2):
                circuit.cx(control, target)
        elif kind == "barrier":
            circuit.barrier(*draw(st.lists(qubit, min_size=1, max_size=num_qubits, unique=True)))
        else:
            circuit.measure(draw(qubit), draw(qubit))
    return circuit


class TestPreservedAnalysis:
    @settings(max_examples=150, deadline=None)
    @given(rewritable_circuits())
    def test_patched_analysis_equals_a_fresh_one(self, circuit):
        # Both rewriting passes declare the analysis in ``preserves`` and patch it; the
        # second cancellation runs on the patched sets, as the optimization loop does.
        pm = PassManager([
            CommutationAnalysis(),
            CommutativeCancellation(),
            RemoveIdentities(),
            CommutativeCancellation(),
        ])
        dag = pm.run_dag(DAGCircuit.from_circuit(circuit))
        fresh = PropertySet()
        CommutationAnalysis().run(dag, fresh)
        assert pm.property_set["commutation_sets"] == fresh["commutation_sets"]
        assert pm.property_set["commutation_index"] == fresh["commutation_index"]
