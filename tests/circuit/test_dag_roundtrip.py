"""Property-style tests: DAG round-trips and mutation-API consistency.

The DAG is the transpiler's canonical IR, so ``from_circuit``/``to_circuit`` must preserve
per-wire gate order, depth and the unitary (up to global phase), and every mutation must
leave the per-wire orders and the linearization mutually consistent.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import DAGCircuit, Instruction, QuantumCircuit, random_circuit
from repro.circuit.gates import gate as make_gate
from repro.exceptions import CircuitError
from repro.synthesis import allclose_up_to_global_phase


def wire_sequences(circuit: QuantumCircuit):
    """Per-qubit sequence of (name, params, qubits) the wire sees, in order."""
    wires = {q: [] for q in range(circuit.num_qubits)}
    for inst in circuit.data:
        for q in inst.qubits:
            wires[q].append((inst.name, inst.gate.params, inst.qubits))
    return wires


def assert_dag_consistent(dag: DAGCircuit):
    """The linearization holds exactly the DAG's nodes, and each wire order lists, in
    linearization order, exactly the nodes that act on that wire."""
    linear = [n.node_id for n in dag.op_nodes()]
    assert sorted(linear) == sorted(dag.nodes)
    for qubit in range(dag.num_qubits):
        assert [n.node_id for n in dag.wire_nodes(qubit)] == [
            nid for nid in linear if qubit in dag.nodes[nid].qubits
        ]
    for clbit in range(dag.num_clbits):
        assert dag._wire_order[-1 - clbit] == [
            nid for nid in linear if clbit in dag.nodes[nid].clbits
        ]


class TestRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_round_trip_preserves_wire_order_depth_unitary(self, seed):
        circuit = random_circuit(4, 8, seed=seed)
        rebuilt = DAGCircuit.from_circuit(circuit).to_circuit()
        assert wire_sequences(rebuilt) == wire_sequences(circuit)
        assert rebuilt.depth() == circuit.depth()
        assert rebuilt.count_ops() == circuit.count_ops()
        assert allclose_up_to_global_phase(rebuilt.to_matrix(), circuit.to_matrix())

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_double_round_trip_is_stable(self, seed):
        circuit = random_circuit(3, 6, seed=seed)
        once = DAGCircuit.from_circuit(circuit).to_circuit()
        twice = DAGCircuit.from_circuit(once).to_circuit()
        assert [
            (i.name, i.gate.params, i.qubits) for i in once.data
        ] == [(i.name, i.gate.params, i.qubits) for i in twice.data]

    def test_round_trip_preserves_measurements_and_metadata(self):
        circuit = QuantumCircuit(2, 2, name="meta")
        circuit.metadata["origin"] = "test"
        circuit.h(0)
        circuit.barrier()
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        rebuilt = DAGCircuit.from_circuit(circuit).to_circuit()
        assert rebuilt.name == "meta"
        assert rebuilt.metadata == {"origin": "test"}
        assert rebuilt.count_gate("measure") == 2
        assert rebuilt.count_gate("barrier") == 1


class TestFingerprint:
    def test_identical_content_same_fingerprint(self):
        a = DAGCircuit.from_circuit(random_circuit(3, 6, seed=7))
        b = DAGCircuit.from_circuit(random_circuit(3, 6, seed=7))
        assert a.fingerprint() == b.fingerprint()

    def test_mutation_changes_fingerprint_and_version(self):
        dag = DAGCircuit.from_circuit(random_circuit(3, 6, seed=7))
        before_print, before_version = dag.fingerprint(), dag.version
        dag.add_node(make_gate("x"), (0,))
        assert dag.version > before_version
        assert dag.fingerprint() != before_print

    def test_label_enters_fingerprint(self):
        def swap_with_label(label):
            from repro.circuit.gates import Gate

            dag = DAGCircuit(2)
            dag.add_node(Gate("swap", (), None, label), (0, 1))
            return dag.fingerprint()

        assert swap_with_label("ctrl:0") != swap_with_label("ctrl:1")


class TestMutationConsistency:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_removals_keep_links_consistent(self, seed):
        circuit = random_circuit(4, 8, seed=seed)
        dag = DAGCircuit.from_circuit(circuit)
        rng = np.random.default_rng(seed)
        for _ in range(min(4, len(dag))):
            nodes = dag.op_nodes()
            dag.remove_op_node(nodes[int(rng.integers(len(nodes)))])
            assert_dag_consistent(dag)
        dag.to_circuit()  # linearization must still be emittable

    def test_substitute_node_keeps_position_and_wires(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.h(0)
        dag = DAGCircuit.from_circuit(circuit)
        target = dag.op_nodes()[2]
        dag.substitute_node(target, make_gate("rz", 0.5))
        assert_dag_consistent(dag)
        out = dag.to_circuit()
        assert [i.name for i in out.data] == ["h", "cx", "rz"]

    def test_substitute_node_rejects_wrong_arity(self):
        dag = DAGCircuit(2)
        node = dag.add_node(make_gate("cx"), (0, 1))
        with pytest.raises(CircuitError):
            dag.substitute_node(node, make_gate("h"))

    def test_substitute_node_with_ops_splices_in_place(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.swap(0, 1)
        circuit.cx(1, 2)
        dag = DAGCircuit.from_circuit(circuit)
        swap = dag.op_nodes("swap")[0]
        new_nodes = dag.substitute_node_with_ops(
            swap,
            [
                Instruction(make_gate("cx"), (0, 1)),
                Instruction(make_gate("cx"), (1, 0)),
                Instruction(make_gate("cx"), (0, 1)),
            ],
        )
        assert len(new_nodes) == 3
        assert_dag_consistent(dag)
        out = dag.to_circuit()
        assert [i.name for i in out.data] == ["h", "cx", "cx", "cx", "cx"]
        # The replacement sits between the h and the trailing cx on every shared wire.
        assert [i.qubits for i in out.data if 1 in i.qubits][-1] == (1, 2)
        assert allclose_up_to_global_phase(out.to_matrix(), circuit.to_matrix())

    def test_substitute_node_with_ops_rejects_foreign_wires(self):
        dag = DAGCircuit(3)
        node = dag.add_node(make_gate("cx"), (0, 1))
        with pytest.raises(CircuitError):
            dag.substitute_node_with_ops(node, [Instruction(make_gate("x"), (2,))])

    def test_substitute_node_with_empty_ops_removes_and_reconnects(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.h(1)
        dag = DAGCircuit.from_circuit(circuit)
        cx = dag.op_nodes("cx")[0]
        dag.substitute_node_with_ops(cx, [])
        assert_dag_consistent(dag)
        out = dag.to_circuit()
        assert [i.name for i in out.data] == ["h", "h"]

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_swap_lowering_via_mutation_preserves_unitary(self, seed):
        """Realistic mutation workload: lower every swap in place, check the unitary."""
        circuit = random_circuit(4, 10, seed=seed)
        dag = DAGCircuit.from_circuit(circuit)
        for node in dag.op_nodes("swap"):
            a, b = node.qubits
            dag.substitute_node_with_ops(
                node,
                [
                    Instruction(make_gate("cx"), (a, b)),
                    Instruction(make_gate("cx"), (b, a)),
                    Instruction(make_gate("cx"), (a, b)),
                ],
            )
            assert_dag_consistent(dag)
        out = dag.to_circuit()
        assert out.count_gate("swap") == 0
        assert allclose_up_to_global_phase(out.to_matrix(), circuit.to_matrix())
