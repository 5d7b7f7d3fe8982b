"""Unit tests for the DAG circuit representation and the routers' dependency frontier."""

import pytest

from repro.circuit import DAGCircuit, QuantumCircuit, StreamingDAG, random_circuit
from repro.circuit.gates import gate as make_gate
from repro.exceptions import CircuitError
from repro.transpiler.passes.sabre import whole_frontier


def layered_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(4)
    circuit.h(0)          # 0
    circuit.cx(0, 1)      # 1
    circuit.cx(2, 3)      # 2
    circuit.cx(1, 2)      # 3
    circuit.x(3)          # 4
    return circuit


class TestDAGConstruction:
    def test_round_trip_preserves_order_per_wire(self):
        circuit = layered_circuit()
        rebuilt = DAGCircuit.from_circuit(circuit).to_circuit()
        assert rebuilt.count_ops() == circuit.count_ops()
        assert [i.name for i in rebuilt.data if 0 in i.qubits] == ["h", "cx"]
        assert [i.qubits for i in rebuilt.data if 2 in i.qubits] == [(2, 3), (1, 2)]

    def test_wire_nodes_follow_execution_order(self):
        dag = DAGCircuit.from_circuit(layered_circuit())
        assert [n.name for n in dag.wire_nodes(0)] == ["h", "cx"]
        assert [n.qubits for n in dag.wire_nodes(2)] == [(2, 3), (1, 2)]
        assert [n.name for n in dag.wire_nodes(3)] == ["cx", "x"]
        with pytest.raises(CircuitError, match="out of range"):
            dag.wire_nodes(-1)

    def test_out_of_range_qubit_rejected(self):
        dag = DAGCircuit(2)
        with pytest.raises(CircuitError):
            dag.add_node(layered_circuit().data[0].gate, (5,))

    @pytest.mark.parametrize("clbit", [-1, 5])
    def test_out_of_range_clbit_rejected(self, clbit):
        # Clbit -1 must not alias another wire: it would key qubit 0's order.
        dag = DAGCircuit(2, 1)
        with pytest.raises(CircuitError, match=f"clbit {clbit} out of range"):
            dag.add_node(make_gate("measure"), (1,), (clbit,))
        assert len(dag) == 0

    def test_measure_creates_clbit_dependency(self):
        circuit = QuantumCircuit(2, 1)
        circuit.measure(0, 0)
        circuit.measure(1, 0)
        dag = DAGCircuit.from_circuit(circuit)
        first, second = dag.op_nodes()
        # The measures share no qubit, so only the clbit orders them.
        frontier = whole_window(dag)
        assert [n.node_id for n in frontier.front] == [first.node_id]
        assert [n.node_id for n in frontier.resolve(frontier.front[0])] == [second.node_id]


class TestRemoveNode:
    def test_remove_reconnects_wire(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.x(0)
        circuit.cx(0, 1)
        dag = DAGCircuit.from_circuit(circuit)
        nodes = dag.op_nodes()
        dag.remove_node(nodes[1])
        assert len(dag) == 2
        assert dag.wire_nodes(0) == [nodes[0], nodes[2]]
        assert dag.wire_nodes(1) == [nodes[2]]

    def test_remove_front_node_updates_front_layer(self):
        dag = DAGCircuit.from_circuit(layered_circuit())
        first = dag.op_nodes()[0]
        dag.remove_node(first)
        assert {n.qubits for n in whole_window(dag).front} == {(0, 1), (2, 3)}

    def test_remove_missing_node_raises(self):
        dag = DAGCircuit.from_circuit(layered_circuit())
        node = dag.op_nodes()[0]
        dag.remove_node(node)
        with pytest.raises(CircuitError):
            dag.remove_node(node)


def whole_window(dag: DAGCircuit) -> StreamingDAG:
    """The frontier in-memory routing walks: the whole DAG admitted up front."""
    return whole_frontier(dag.op_nodes(), dag.num_qubits, dag.num_clbits)


class TestWholeWindowFrontier:
    def test_resolve_unlocks_successors(self):
        dag = DAGCircuit.from_circuit(layered_circuit())
        frontier = whole_window(dag)
        start_names = {n.name for n in frontier.front}
        assert start_names == {"h", "cx"}
        h_node = next(n for n in frontier.front if n.name == "h")
        newly = frontier.resolve(h_node)
        assert [n.qubits for n in newly] == [(0, 1)]

    def test_cannot_resolve_blocked_node(self):
        dag = DAGCircuit.from_circuit(layered_circuit())
        frontier = whole_window(dag)
        blocked = frontier.nodes[3]  # cx(1,2) depends on both earlier CNOTs
        with pytest.raises(CircuitError):
            frontier.resolve(blocked)

    def test_full_resolution_drains_dag(self):
        dag = DAGCircuit.from_circuit(layered_circuit())
        frontier = whole_window(dag)
        resolved = 0
        while not frontier.is_done():
            frontier.resolve(frontier.front[0])
            resolved += 1
        assert resolved == len(dag)
        assert frontier.num_remaining() == 0

    def test_lookahead_returns_upcoming_two_qubit_gates(self):
        dag = DAGCircuit.from_circuit(layered_circuit())
        frontier = whole_window(dag)
        lookahead = frontier.lookahead(5)
        # Successors of the front layer that are not themselves executable yet.
        assert [n.qubits for n in lookahead] == [(0, 1), (1, 2)]
        assert all(n not in frontier.front for n in lookahead)

    def test_lookahead_respects_size(self):
        circuit = QuantumCircuit(2)
        for _ in range(10):
            circuit.cx(0, 1)
        frontier = whole_window(DAGCircuit.from_circuit(circuit))
        assert len(frontier.lookahead(3)) == 3

    def test_walk_follows_dag_dependencies(self):
        # Node ids follow insertion order, so every step must match the source's own
        # dependencies: the front is exactly the unresolved nodes whose predecessors are
        # all resolved, and a resolve unlocks successors in ascending id order.
        circuit = random_circuit(6, 15, seed=11)
        circuit.measure_all()
        dag = DAGCircuit.from_circuit(circuit)
        frontier = whole_window(dag)
        preds = source_predecessors(circuit)
        resolved = set()

        def ready(nid):
            return nid not in resolved and preds[nid] <= resolved

        steps = 0
        while not frontier.is_done():
            front = frontier.front
            assert {n.node_id for n in front} == {i for i in range(len(preds)) if ready(i)}
            node = front[steps % len(front)]
            newly = frontier.resolve(node)
            resolved.add(node.node_id)
            assert [n.node_id for n in newly] == [
                i for i in range(len(preds)) if node.node_id in preds[i] and ready(i)
            ]
            steps += 1
        assert steps == len(dag)


def source_predecessors(circuit: QuantumCircuit):
    """Per instruction, the last earlier instruction on each qubit or clbit it shares."""
    last_on_wire = {}
    preds = []
    for index, inst in enumerate(circuit.data):
        wires = [("q", q) for q in inst.qubits] + [("c", c) for c in inst.clbits]
        preds.append({last_on_wire[w] for w in wires if w in last_on_wire})
        for w in wires:
            last_on_wire[w] = index
    return preds
