"""Tests reproducing the paper's illustrative figures (Figs. 1, 3, 4, 7).

These tests demonstrate the paper's motivating observations directly on the library:
different SWAP insertions with the same SWAP count can have different CNOT cost once the
post-routing optimizations run.
"""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.core import transpile
from repro.hardware import Target, linear_coupling_map
from repro.synthesis import cnot_count
from repro.transpiler import PassManager
from repro.transpiler.passes import CommutativeCancellation, SwapLowering, UnitarySynthesis

from ..conftest import assert_unitary_equiv


def figure1_logical_circuit() -> QuantumCircuit:
    """Pairwise two-qubit interactions between (1,2), (0,1) and (0,2) (paper Fig. 1)."""
    circuit = QuantumCircuit(3)
    circuit.crx(0.7, 1, 2)   # U1
    circuit.crx(0.9, 0, 1)   # U2
    circuit.crx(1.1, 0, 2)   # U3 -- not executable on a line 0-1-2
    return circuit


class TestFigure1:
    """Not all SWAPs have the same cost: the two routing options differ by two CNOTs."""

    def _route_option(self, swap_pair):
        circuit = figure1_logical_circuit()
        routed = QuantumCircuit(3)
        routed.crx(0.7, 1, 2)
        routed.crx(0.9, 0, 1)
        routed.swap(*swap_pair)
        # After swapping, the (0,2) interaction lands on an adjacent pair.
        if swap_pair == (0, 1):
            routed.crx(1.1, 1, 2)
        else:
            routed.crx(1.1, 0, 1)
        return circuit, routed

    def _optimized_cx(self, routed):
        pm = PassManager([SwapLowering(), UnitarySynthesis(), CommutativeCancellation(),
                          UnitarySynthesis()])
        return pm.run(routed).cx_count()

    def test_option_b_cheaper_than_option_a(self):
        _, option_a = self._route_option((0, 1))
        _, option_b = self._route_option((1, 2))
        cost_a = self._optimized_cx(option_a)
        cost_b = self._optimized_cx(option_b)
        # The SWAP adjacent to the (1,2) interaction is absorbed into its block.
        assert cost_b < cost_a

    def test_both_options_are_semantically_valid_routings(self):
        for pair in ((0, 1), (1, 2)):
            circuit, routed = self._route_option(pair)
            # Relabel the original's qubits according to the swap to compare.
            mapping = {0: 0, 1: 1, 2: 2}
            mapping[pair[0]], mapping[pair[1]] = mapping[pair[1]], mapping[pair[0]]
            relabelled = QuantumCircuit(3)
            relabelled.crx(0.7, 1, 2)
            relabelled.crx(0.9, 0, 1)
            relabelled.crx(1.1, mapping[0], mapping[2])
            lowered = PassManager([SwapLowering()]).run(routed)
            reference = QuantumCircuit(3)
            reference.crx(0.7, 1, 2)
            reference.crx(0.9, 0, 1)
            reference.swap(*pair)
            reference.crx(1.1, *( (1, 2) if pair == (0, 1) else (0, 1) ))
            assert_unitary_equiv(lowered, reference)


class TestFigure3:
    """Two-qubit block re-synthesis reduces the cost of an adjacent SWAP."""

    def test_block_plus_swap_needs_two_cnots(self):
        block = QuantumCircuit(2)
        block.cx(0, 1)
        block.rz(0.3, 1)
        matrix = block.to_matrix()
        swap = QuantumCircuit(2)
        swap.swap(0, 1)
        assert cnot_count(swap.to_matrix() @ matrix) == 2

    def test_three_cnot_block_plus_swap_is_free(self):
        rng = np.random.default_rng(3)
        block = QuantumCircuit(2)
        block.cx(0, 1)
        block.ry(rng.uniform(0.3, 1.2), 0)
        block.rz(rng.uniform(0.3, 1.2), 1)
        block.cx(1, 0)
        block.ry(rng.uniform(0.3, 1.2), 1)
        block.cx(0, 1)
        swap = QuantumCircuit(2)
        swap.swap(0, 1)
        assert cnot_count(block.to_matrix()) == 3
        # The SWAP is "free": the combined block still needs at most three CNOTs.
        assert cnot_count(swap.to_matrix() @ block.to_matrix()) <= 3


class TestFigure4:
    """Gate commutation + cancellation makes one SWAP decomposition cheaper."""

    def test_oriented_swap_cancels_against_commuting_cnots(self):
        # cx(0,2); cx(1,2); swap(1,2) with the swap's first CNOT oriented as cx(1,2):
        # the first CNOT of the SWAP cancels with cx(1,2) through commutation with cx(0,2).
        circuit = QuantumCircuit(3)
        circuit.cx(1, 2)
        circuit.cx(0, 2)
        circuit.swap(1, 2, label="ctrl:1")
        optimized = PassManager([SwapLowering(), CommutativeCancellation()]).run(circuit)
        assert optimized.cx_count() == 3  # 2 original + 3 swap - 2 cancelled
        assert_unitary_equiv(circuit, optimized)

    def test_wrong_orientation_misses_the_cancellation(self):
        circuit = QuantumCircuit(3)
        circuit.cx(1, 2)
        circuit.cx(0, 2)
        circuit.swap(1, 2, label="ctrl:2")
        optimized = PassManager([SwapLowering(), CommutativeCancellation()]).run(circuit)
        assert optimized.cx_count() >= 4
        assert_unitary_equiv(circuit, optimized)


class TestEndToEndMotivation:
    def test_nassc_beats_sabre_on_figure1_style_workload(self):
        """Routing the Fig. 1 workload with NASSC should not cost more CNOTs than SABRE."""
        target = Target(coupling_map=linear_coupling_map(3))
        circuit = figure1_logical_circuit()
        sabre = transpile(circuit, target, routing="sabre", seed=0)
        nassc = transpile(circuit, target, routing="nassc", seed=0)
        assert nassc.cx_count <= sabre.cx_count
