"""Tests for evaluation metrics."""

import pytest

from repro.benchlib import grover_n4
from repro.circuit import QuantumCircuit
from repro.core import optimize_logical, transpile
from repro.evaluation import (
    collect_metrics,
    count_summary,
    geometric_mean_reduction,
    is_equivalent_after_routing,
    percentage_change,
    routed_state_fidelity,
)
from repro.hardware import Target, linear_coupling_map


class TestScalarMetrics:
    def test_percentage_change(self):
        assert percentage_change(100, 80) == pytest.approx(20.0)
        assert percentage_change(100, 120) == pytest.approx(-20.0)
        assert percentage_change(0, 10) == 0.0

    def test_geometric_mean_reduction(self):
        # Two benchmarks, both reduced to half the baseline: 50% geometric-mean reduction.
        assert geometric_mean_reduction([10, 100], [5, 50]) == pytest.approx(50.0)

    def test_geometric_mean_mixed(self):
        value = geometric_mean_reduction([10, 10], [5, 20])
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_geometric_mean_empty(self):
        assert geometric_mean_reduction([], []) == 0.0

    def test_count_summary(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        summary = count_summary(circuit)
        assert summary["cx"] == 1
        assert summary["single_qubit"] == 1
        assert summary["depth"] == 2


class TestRoutingMetrics:
    def test_collect_metrics_fields(self):
        circuit = grover_n4()
        target = Target(coupling_map=linear_coupling_map(5))
        optimized = optimize_logical(circuit)
        result = transpile(circuit, target, routing="sabre", seed=0)
        metrics = collect_metrics("grover_n4", circuit, optimized, result)
        assert metrics.added_cx == result.cx_count - optimized.cx_count()
        assert metrics.added_depth == result.depth - optimized.depth()
        assert metrics.num_qubits == 4

    def test_fidelity_of_identity_routing(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.cx(0, 1)
        target = Target(coupling_map=linear_coupling_map(4))
        result = transpile(circuit, target, routing="sabre", seed=0)
        assert routed_state_fidelity(circuit, result) == pytest.approx(1.0, abs=1e-7)
        assert is_equivalent_after_routing(circuit, result)

    def test_fidelity_detects_corruption(self):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        target = Target(coupling_map=linear_coupling_map(3))
        result = transpile(circuit, target, routing="sabre", seed=0)
        # Corrupt the routed circuit on purpose.
        result.circuit.x(result.final_layout.physical(0))
        assert routed_state_fidelity(circuit, result) < 0.5
