"""Tests for the DAG-native pass-manager framework and its flow control."""

import pytest

from repro.circuit import DAGCircuit, QuantumCircuit
from repro.circuit.gates import gate as make_gate
from repro.exceptions import TranspilerError
from repro.transpiler import (
    AnalysisPass,
    FixedPoint,
    PassManager,
    PropertySet,
    TransformationPass,
    TranspilerPass,
)


class _CountingPass(AnalysisPass):
    name = "counting"

    def run(self, dag, property_set):
        property_set["count"] = property_set.get("count", 0) + 1


class _AddGatePass(TransformationPass):
    def run(self, dag, property_set):
        dag.add_node(make_gate("x"), (0,))
        return dag


class _BrokenPass(TransformationPass):
    def run(self, dag, property_set):
        return None


class _RemoveOneXPass(TransformationPass):
    """Removes a single x gate per invocation (converges when none are left)."""

    def run(self, dag, property_set):
        for node in dag.op_nodes("x"):
            dag.remove_op_node(node)
            break
        return dag


class TestPassManager:
    def test_runs_passes_in_order(self):
        pm = PassManager([_CountingPass(), _AddGatePass(), _AddGatePass()])
        result = pm.run(QuantumCircuit(1))
        assert result.count_gate("x") == 2
        assert pm.property_set["count"] == 1

    def test_append_and_extend(self):
        pm = PassManager()
        pm.append(_CountingPass()).extend([_CountingPass()])
        pm.run(QuantumCircuit(1))
        assert pm.property_set["count"] == 2

    def test_timings_recorded(self):
        pm = PassManager([_CountingPass(), _AddGatePass()])
        pm.run(QuantumCircuit(1))
        assert "counting" in pm.timings
        assert pm.total_time() >= 0.0

    def test_timing_log_keeps_repeated_instances_separate(self):
        pm = PassManager([_AddGatePass(), _AddGatePass(), _CountingPass()])
        pm.run(QuantumCircuit(1))
        names = [name for name, _ in pm.timing_log]
        assert names == ["_AddGatePass", "_AddGatePass", "counting"]
        assert pm.timings["_AddGatePass"] == pytest.approx(
            sum(t for name, t in pm.timing_log if name == "_AddGatePass")
        )

    def test_none_return_raises(self):
        pm = PassManager([_BrokenPass()])
        with pytest.raises(TranspilerError):
            pm.run(QuantumCircuit(1))

    def test_property_set_is_shared(self):
        class Writer(AnalysisPass):
            def run(self, dag, property_set):
                property_set["token"] = 42

        class Reader(AnalysisPass):
            def run(self, dag, property_set):
                assert property_set["token"] == 42

        PassManager([Writer(), Reader()]).run(QuantumCircuit(1))

    def test_property_set_is_a_dict(self):
        assert isinstance(PropertySet(), dict)

    def test_run_dag_round_trip(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        dag = DAGCircuit.from_circuit(circuit)
        out = PassManager([_AddGatePass()]).run_dag(dag)
        assert out.count_gate("x") == 1
        assert out.count_gate("cx") == 1

    def test_analysis_pass_may_not_mutate(self):
        class Mutator(AnalysisPass):
            def run(self, dag, property_set):
                dag.add_node(make_gate("x"), (0,))

        with pytest.raises(TranspilerError):
            PassManager([Mutator()]).run(QuantumCircuit(1))

    def test_run_circuit_compat_boundary(self):
        props = PropertySet()
        circuit = _AddGatePass().run_circuit(QuantumCircuit(1), props)
        assert circuit.count_gate("x") == 1


class TestInvalidation:
    def test_transformation_invalidates_stale_analysis(self):
        class FakeAnalysis(AnalysisPass):
            def run(self, dag, property_set):
                property_set["block_list"] = ["sentinel"]

        pm = PassManager([FakeAnalysis(), _AddGatePass()])
        pm.run(QuantumCircuit(1))
        assert "block_list" not in pm.property_set

    def test_unchanged_transformation_preserves_analysis(self):
        class NoOp(TransformationPass):
            def run(self, dag, property_set):
                return dag

        class FakeAnalysis(AnalysisPass):
            def run(self, dag, property_set):
                property_set["block_list"] = ["sentinel"]

        pm = PassManager([FakeAnalysis(), NoOp()])
        pm.run(QuantumCircuit(1))
        assert pm.property_set["block_list"] == ["sentinel"]

    def test_preserves_protects_declared_keys(self):
        class FakeAnalysis(AnalysisPass):
            def run(self, dag, property_set):
                property_set["commutation_sets"] = {"k": 1}
                property_set["block_list"] = ["sentinel"]

        class Preserving(TransformationPass):
            preserves = ("commutation_sets",)

            def run(self, dag, property_set):
                dag.add_node(make_gate("x"), (0,))
                return dag

        pm = PassManager([FakeAnalysis(), Preserving()])
        pm.run(QuantumCircuit(1))
        assert pm.property_set["commutation_sets"] == {"k": 1}
        assert "block_list" not in pm.property_set

    def test_non_analysis_keys_survive_transformations(self):
        class SetsLayout(AnalysisPass):
            def run(self, dag, property_set):
                property_set["layout"] = "keep-me"

        pm = PassManager([SetsLayout(), _AddGatePass()])
        pm.run(QuantumCircuit(1))
        assert pm.property_set["layout"] == "keep-me"


class TestFlowControl:
    def test_fixed_point_converges(self):
        circuit = QuantumCircuit(1)
        for _ in range(3):
            circuit.x(0)
        pm = PassManager([FixedPoint([_RemoveOneXPass()], max_iterations=50)])
        result = pm.run(circuit)
        assert result.count_gate("x") == 0
        # Three removing iterations plus the one that confirms the fixed point.
        assert len(pm.timing_log) == 4

    def test_fixed_point_stops_immediately_when_stable(self):
        class NoOp(TransformationPass):
            def run(self, dag, property_set):
                return dag

        pm = PassManager([FixedPoint([NoOp()], max_iterations=50)])
        pm.run(QuantumCircuit(1))
        assert len(pm.timing_log) == 1

    def test_fixed_point_respects_max_iterations(self):
        pm = PassManager([FixedPoint([_AddGatePass()], max_iterations=3)])
        result = pm.run(QuantumCircuit(1))
        assert result.count_gate("x") == 3

    def test_fixed_point_rejects_zero_iterations(self):
        with pytest.raises(TranspilerError):
            FixedPoint([_AddGatePass()], max_iterations=0)

    def test_fixed_point_body_shares_the_property_set(self):
        circuit = QuantumCircuit(1)
        for _ in range(3):
            circuit.x(0)
        pm = PassManager([FixedPoint([_CountingPass(), _RemoveOneXPass()], max_iterations=50)])
        pm.run(circuit)
        # One count per body run: three removals plus the confirming iteration.
        assert pm.property_set["count"] == 4

    def test_fixed_point_body_may_hold_a_flow_controller(self):
        circuit = QuantumCircuit(1)
        for _ in range(4):
            circuit.x(0)
        inner = FixedPoint([_RemoveOneXPass()], max_iterations=2)
        pm = PassManager([FixedPoint([inner, _CountingPass()], max_iterations=50)])
        result = pm.run(circuit)
        assert result.count_gate("x") == 0
        # The inner loop removes two x gates per outer iteration; the third outer
        # iteration changes nothing and ends the outer loop.
        assert pm.property_set["count"] == 3
