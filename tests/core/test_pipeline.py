"""Integration tests for the full SABRE and NASSC compilation pipelines."""

import numpy as np
import pytest

from repro.benchlib import adder_n10, bv_n5, grover_n4, mod5mils_65, qft, qpe, vqe_ansatz
from repro.circuit import QuantumCircuit, random_circuit
from repro.core import NASSCConfig, compare_routings, optimize_logical, transpile
from repro.evaluation.metrics import is_equivalent_after_routing, routed_state_fidelity
from repro.exceptions import TranspilerError
from repro.hardware import (
    Target,
    fake_montreal_calibration,
    grid_coupling_map,
    linear_coupling_map,
    montreal_coupling_map,
)
from repro.transpiler.passes import coupling_violations


SMALL_BENCHMARKS = [
    ("bv_n5", bv_n5()),
    ("grover_n4", grover_n4()),
    ("mod5mils_65", mod5mils_65()),
    ("qpe_5", qpe(4)),
    ("qft_5", qft(5)),
]


class TestTranspileBasics:
    def test_unknown_routing_rejected(self):
        with pytest.raises(TranspilerError):
            transpile(
                QuantumCircuit(2), Target(coupling_map=linear_coupling_map(3)), routing="magic"
            )

    def test_coupling_map_required(self):
        with pytest.raises(TranspilerError):
            transpile(QuantumCircuit(2), None, routing="sabre")

    def test_noise_aware_requires_calibration(self):
        with pytest.raises(TranspilerError):
            transpile(
                QuantumCircuit(2), Target(coupling_map=linear_coupling_map(3)),
                routing="sabre", noise_aware=True,
            )

    def test_routing_none_only_optimizes(self):
        circuit = grover_n4()
        result = transpile(circuit, routing="none")
        assert result.num_swaps == 0
        assert result.circuit.num_qubits == circuit.num_qubits

    def test_output_uses_hardware_basis(self, linear5):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.ccx(0, 1, 2)
        result = transpile(circuit, Target(coupling_map=linear5), routing="sabre", seed=0)
        names = {inst.name for inst in result.circuit.data}
        assert names <= {"cx", "rz", "sx", "x", "barrier", "measure"}

    def test_result_metrics_consistent(self, linear5):
        circuit = grover_n4()
        result = transpile(circuit, Target(coupling_map=linear5), routing="nassc", seed=0)
        assert result.cx_count == result.circuit.cx_count()
        assert result.depth == result.circuit.depth()
        assert result.transpile_time > 0
        assert result.pass_timings

    def test_optimize_logical_never_increases_cnots(self):
        circuit = vqe_ansatz(6, reps=2)
        optimized = optimize_logical(circuit)
        assert optimized.cx_count() <= circuit.cx_count()

    def test_compare_routings_returns_both(self, linear5):
        results = compare_routings(grover_n4(), Target(coupling_map=linear5), seed=0)
        assert set(results) == {"sabre", "nassc"}


class TestPipelineCorrectness:
    @pytest.mark.parametrize("name,circuit", SMALL_BENCHMARKS, ids=[n for n, _ in SMALL_BENCHMARKS])
    @pytest.mark.parametrize("routing", ["sabre", "nassc"])
    def test_benchmarks_preserved_on_linear_topology(self, name, circuit, routing):
        coupling = linear_coupling_map(max(circuit.num_qubits + 1, 6))
        result = transpile(circuit, Target(coupling_map=coupling), routing=routing, seed=0)
        assert not coupling_violations(result.circuit, coupling)
        assert is_equivalent_after_routing(circuit, result)

    @pytest.mark.parametrize("routing", ["sabre", "nassc"])
    def test_benchmarks_preserved_on_montreal(self, routing, montreal):
        circuit = grover_n4()
        result = transpile(circuit, Target(coupling_map=montreal), routing=routing, seed=1)
        assert not coupling_violations(result.circuit, montreal)
        assert is_equivalent_after_routing(circuit, result)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_circuits_preserved(self, seed, grid9):
        circuit = random_circuit(6, 6, seed=seed)
        for routing in ("sabre", "nassc"):
            result = transpile(circuit, Target(coupling_map=grid9), routing=routing, seed=seed)
            assert routed_state_fidelity(circuit, result) > 1 - 1e-6

    def test_noise_aware_pipelines_preserved(self, montreal):
        calibration = fake_montreal_calibration()
        circuit = bv_n5()
        for routing in ("sabre", "nassc"):
            result = transpile(
                circuit, Target(coupling_map=montreal, calibration=calibration),
                routing=routing, seed=0, noise_aware=True,
            )
            assert is_equivalent_after_routing(circuit, result)

    def test_measurements_survive_routing(self, linear5):
        circuit = QuantumCircuit(3, 3)
        circuit.h(0)
        circuit.cx(0, 2)
        for q in range(3):
            circuit.measure(q, q)
        result = transpile(circuit, Target(coupling_map=linear5), routing="nassc", seed=0)
        assert result.circuit.count_gate("measure") == 3


class TestPipelineQuality:
    def test_nassc_reduces_added_cnots_on_structured_benchmarks(self, montreal):
        """The paper's headline claim, on a subset: NASSC adds fewer CNOTs than SABRE."""
        target = Target(coupling_map=montreal)
        total_sabre = 0.0
        total_nassc = 0.0
        for circuit in (grover_n4(), vqe_ansatz(6, reps=2), adder_n10()):
            original = optimize_logical(circuit).cx_count()
            for seed in (0, 1):
                sabre = transpile(circuit, target, routing="sabre", seed=seed)
                nassc = transpile(circuit, target, routing="nassc", seed=seed)
                total_sabre += sabre.cx_count - original
                total_nassc += nassc.cx_count - original
        assert total_nassc < total_sabre

    def test_nassc_never_catastrophically_worse(self, linear10):
        circuit = qft(6)
        sabre = transpile(circuit, Target(coupling_map=linear10), routing="sabre", seed=0)
        nassc = transpile(circuit, Target(coupling_map=linear10), routing="nassc", seed=0)
        assert nassc.cx_count <= 2 * sabre.cx_count

    def test_ablation_configs_all_run(self, linear5):
        circuit = grover_n4()
        counts = []
        for config in NASSCConfig.all_combinations():
            result = transpile(
                circuit, Target(coupling_map=linear5), routing="nassc", seed=0,
                nassc_config=config,
            )
            counts.append(result.cx_count)
            assert is_equivalent_after_routing(circuit, result)
        assert min(counts) > 0

    def test_fully_mapped_circuit_adds_nothing(self, linear5):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        result = transpile(circuit, Target(coupling_map=linear5), routing="nassc", seed=0)
        assert result.num_swaps == 0
        assert result.cx_count <= 2
