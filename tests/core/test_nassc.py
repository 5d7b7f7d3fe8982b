"""Tests for the NASSC router and its configuration."""

import pytest

from repro.circuit import QuantumCircuit, qasm, random_circuit, random_cx_circuit
from repro.core import NASSCConfig
from repro.core.nassc import NASSCSwapRouter
from repro.hardware import linear_coupling_map
from repro.transpiler import PropertySet
from repro.transpiler.passes import SabreRouting, SabreSwapRouter, coupling_violations
from repro.transpiler.passes.sabre import StreamingOutput


class TestNASSCConfig:
    def test_default_enables_everything(self):
        config = NASSCConfig()
        assert config.as_tuple() == (True, True, True)

    def test_all_combinations_has_eight_unique_entries(self):
        combos = NASSCConfig.all_combinations()
        assert len(combos) == 8
        assert len({c.as_tuple() for c in combos}) == 8


class TestNASSCSwapRouter:
    def test_routes_respect_coupling(self, linear10):
        circuit = random_cx_circuit(8, 30, seed=4)
        result = NASSCSwapRouter(linear10, seed=4).route(circuit)
        assert not coupling_violations(result.circuit, linear10)
        assert result.circuit.cx_count() == 30

    def test_mapped_circuit_needs_no_swaps(self, linear5):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        result = NASSCSwapRouter(linear5, seed=0).route(circuit)
        assert result.num_swaps == 0

    def test_deterministic_with_seed(self, linear10):
        circuit = random_cx_circuit(6, 25, seed=8)
        first = NASSCSwapRouter(linear10, seed=3).route(circuit)
        second = NASSCSwapRouter(linear10, seed=3).route(circuit)
        assert [i.qubits for i in first.circuit.data] == [i.qubits for i in second.circuit.data]

    def test_labels_recorded_for_cancellable_swaps(self, linear5):
        # cx(0,1) then a gate needing a swap right next to it: the chosen swap should carry
        # an orientation label when a cancellation opportunity exists.
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(0, 2)
        circuit.cx(0, 1)
        router = NASSCSwapRouter(linear_coupling_map(3), seed=0)
        result = router.route(circuit)
        swap_instructions = [inst for inst in result.circuit.data if inst.name == "swap"]
        if swap_instructions:
            assert any(inst.gate.label for inst in swap_instructions) or not result.swap_labels

    def test_prefers_swap_adjacent_to_existing_block(self):
        # Paper Fig. 1: with two equal-distance SWAP options NASSC picks the one next to an
        # existing CNOT so the SWAP can be absorbed.
        coupling = linear_coupling_map(3)
        circuit = QuantumCircuit(3)
        circuit.cx(1, 2)
        circuit.cx(0, 1)
        circuit.cx(0, 2)
        nassc = NASSCSwapRouter(coupling, seed=0).route(circuit)
        assert nassc.num_swaps >= 1
        assert not coupling_violations(nassc.circuit, coupling)

    def test_disabled_config_matches_plain_distance_choice(self, linear10):
        # With every optimization disabled the cost function reduces to 3x the SABRE distance
        # term, so the swap count should match SABRE's for the same seed.
        circuit = random_cx_circuit(7, 20, seed=12)
        config = NASSCConfig(False, False, False)
        nassc = NASSCSwapRouter(linear10, seed=7, config=config).route(circuit)
        sabre = SabreSwapRouter(linear10, seed=7).route(circuit)
        assert nassc.num_swaps == sabre.num_swaps

    @pytest.mark.parametrize("config", NASSCConfig.all_combinations())
    def test_all_configurations_produce_valid_routes(self, config, linear5):
        circuit = random_cx_circuit(5, 12, seed=1)
        result = NASSCSwapRouter(linear5, seed=1, config=config).route(circuit)
        assert not coupling_violations(result.circuit, linear5)


class TestNASSCRoutingPass:
    def test_pass_sets_properties(self, linear5):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        props = PropertySet()
        routing = SabreRouting(NASSCSwapRouter(linear5, seed=0))
        assert routing.name == "NASSCRouting"
        routed = routing.run_circuit(circuit, props)
        assert "final_layout" in props
        assert props["num_swaps"] >= 1
        assert not coupling_violations(routed, linear5)


class TestOutputTrim:
    def test_trimmed_sink_routes_like_an_untrimmed_one(self, monkeypatch):
        """The output sink drops positions no wire history references; the NASSC
        estimators only read referenced positions, so trimming must not change any
        routing decision or SWAP label."""
        circuit = random_circuit(8, 400, seed=5, two_qubit_prob=0.5)
        assert len(circuit.data) >= 2000
        coupling = linear_coupling_map(8)

        router = NASSCSwapRouter(coupling, seed=2)
        trimmed = router.route(circuit)
        # The trim really ran: the sink retains a bounded tail, not every position.
        assert len(router._out.data) < len(trimmed.dag) // 2

        monkeypatch.setattr(StreamingOutput, "_TRIM_INTERVAL", 10 * len(circuit.data))
        untrimmed_router = NASSCSwapRouter(coupling, seed=2)
        untrimmed = untrimmed_router.route(circuit)
        assert len(untrimmed_router._out.data) == len(untrimmed.dag)

        assert trimmed.swap_labels and trimmed.swap_labels == untrimmed.swap_labels
        assert qasm.dumps(trimmed.circuit) == qasm.dumps(untrimmed.circuit)
