"""Unit tests for the DAG circuit representation and the routers' dependency frontier."""

import pytest

from repro.circuit import DAGCircuit, QuantumCircuit, StreamingDAG, random_circuit
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

    def test_front_layer(self):
        dag = DAGCircuit.from_circuit(layered_circuit())
        front = dag.front_layer()
        assert {n.name for n in front} == {"h", "cx"}
        assert {n.qubits for n in front} == {(0,), (2, 3)}

    def test_successors_and_predecessors(self):
        dag = DAGCircuit.from_circuit(layered_circuit())
        nodes = dag.op_nodes()
        h_node = nodes[0]
        cx01 = nodes[1]
        assert dag.successors(h_node) == [cx01]
        assert dag.predecessors(cx01) == [h_node]

    def test_topological_order_respects_dependencies(self):
        dag = DAGCircuit.from_circuit(layered_circuit())
        order = [n.node_id for n in dag.topological_nodes()]
        position = {nid: i for i, nid in enumerate(order)}
        for node in dag.op_nodes():
            for succ in dag.successors(node):
                assert position[node.node_id] < position[succ.node_id]

    def test_descendants(self):
        dag = DAGCircuit.from_circuit(layered_circuit())
        nodes = dag.op_nodes()
        assert nodes[3].node_id in dag.descendants(nodes[0])

    def test_two_qubit_nodes(self):
        dag = DAGCircuit.from_circuit(layered_circuit())
        assert len(dag.two_qubit_nodes()) == 3

    def test_out_of_range_qubit_rejected(self):
        dag = DAGCircuit(2)
        with pytest.raises(CircuitError):
            dag.add_node(layered_circuit().data[0].gate, (5,))

    def test_measure_creates_clbit_dependency(self):
        circuit = QuantumCircuit(2, 1)
        circuit.measure(0, 0)
        circuit.measure(1, 0)
        dag = DAGCircuit.from_circuit(circuit)
        nodes = dag.op_nodes()
        assert dag.predecessors(nodes[1]) == [nodes[0]]


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
        remaining = dag.op_nodes()
        assert dag.successors(remaining[0]) == [remaining[1]]

    def test_remove_front_node_updates_front_layer(self):
        dag = DAGCircuit.from_circuit(layered_circuit())
        first = dag.op_nodes()[0]
        dag.remove_node(first)
        assert all(n.node_id != first.node_id for n in dag.front_layer())

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
        # Node ids follow insertion order, so every step must match the DAG's own
        # dependency sets: the front is exactly the unresolved nodes whose predecessors
        # are all resolved, and a resolve unlocks successors in ascending id order.
        circuit = random_circuit(6, 15, seed=11)
        circuit.measure_all()
        dag = DAGCircuit.from_circuit(circuit)
        frontier = whole_window(dag)
        resolved = set()

        def ready(node):
            return node.node_id not in resolved and all(
                pred.node_id in resolved for pred in dag.predecessors(node)
            )

        steps = 0
        while not frontier.is_done():
            front = frontier.front
            assert {n.node_id for n in front} == {n.node_id for n in dag.op_nodes() if ready(n)}
            node = front[steps % len(front)]
            newly = frontier.resolve(node)
            resolved.add(node.node_id)
            dag_node = dag.node(node.node_id)
            assert [n.node_id for n in newly] == [
                s.node_id for s in dag.successors(dag_node) if ready(s)
            ]
            steps += 1
        assert steps == len(dag)
