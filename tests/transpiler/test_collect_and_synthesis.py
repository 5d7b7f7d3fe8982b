"""Tests for two-qubit block collection and block re-synthesis."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.circuit import QuantumCircuit, random_circuit
from repro.circuit.dag import DAGCircuit
from repro.circuit.gates import gate as make_gate
from repro.obs import COUNTERS
from repro.synthesis import TwoQubitSynthesizer
from repro.transpiler import PassManager, PropertySet
from repro.transpiler.passes import Collect2qBlocks, UnitarySynthesis, block_cx_weight, block_matrix
from repro.transpiler.passes import unitary_synthesis

from ..conftest import assert_unitary_equiv


def collect(circuit):
    props = PropertySet()
    Collect2qBlocks().run_circuit(circuit, props)
    return props


class TestCollect2qBlocks:
    def test_simple_block(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.rz(0.3, 1)
        circuit.cx(0, 1)
        props = collect(circuit)
        assert len(props["block_list"]) == 1
        assert props["block_list"][0] == [0, 1, 2, 3]
        assert props["block_pairs"][0] == (0, 1)

    def test_blocks_split_by_third_qubit(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.cx(0, 1)
        props = collect(circuit)
        assert len(props["block_list"]) == 3

    def test_blocks_split_by_barrier(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.barrier()
        circuit.cx(0, 1)
        props = collect(circuit)
        assert len(props["block_list"]) == 2

    def test_floating_1q_gates_absorbed_into_next_block(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.t(1)
        circuit.cx(0, 1)
        props = collect(circuit)
        assert props["block_list"][0] == [0, 1, 2]

    def test_trailing_1q_gates_joined_while_block_open(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.h(0)
        circuit.h(1)
        props = collect(circuit)
        assert props["block_list"][0] == [0, 1, 2]

    def test_block_id_mapping(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        props = collect(circuit)
        assert props["block_id"][0] == 0
        assert props["block_id"][1] == 1

    def test_block_matrix_and_weight_helpers(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.swap(0, 1)
        props = collect(circuit)
        positions = props["block_list"][0]
        assert block_cx_weight(circuit, positions) == 4  # cx (1) + swap (3)
        matrix = block_matrix([circuit.data[p] for p in positions], (0, 1))
        assert matrix.shape == (4, 4)


class TestUnitarySynthesis:
    def run_pass(self, circuit):
        return PassManager([UnitarySynthesis()]).run(circuit)

    def test_swap_adjacent_to_cx_resynthesised_to_two_cnots(self):
        # Paper Fig. 1(b): CNOT + SWAP on the same pair costs 2 CNOTs after re-synthesis.
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.swap(0, 1)
        optimized = self.run_pass(circuit)
        assert optimized.cx_count() == 2
        assert_unitary_equiv(circuit, optimized)

    def test_three_cnot_block_plus_swap_stays_at_three(self):
        # Paper Sec. III: a SWAP following a generic 3-CNOT block is free.
        rng = np.random.default_rng(1)
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.rz(rng.uniform(0.2, 1.0), 0)
        circuit.ry(rng.uniform(0.2, 1.0), 1)
        circuit.cx(1, 0)
        circuit.rz(rng.uniform(0.2, 1.0), 1)
        circuit.cx(0, 1)
        circuit.swap(0, 1)
        optimized = self.run_pass(circuit)
        assert optimized.cx_count() <= 3
        assert_unitary_equiv(circuit, optimized)

    def test_redundant_cnot_pair_removed(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        optimized = self.run_pass(circuit)
        assert optimized.cx_count() == 0
        assert_unitary_equiv(circuit, optimized)

    def test_single_cx_left_untouched(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        optimized = self.run_pass(circuit)
        assert optimized.cx_count() == 1

    def test_never_increases_cx_count(self):
        for seed in range(5):
            circuit = random_circuit(4, 8, seed=seed)
            baseline = PassManager([]).run(circuit)
            optimized = self.run_pass(circuit)
            swap_weight = 3 * baseline.count_gate("swap") + 2 * (
                baseline.num_nonlocal_gates()
                - baseline.cx_count()
                - baseline.count_gate("swap")
            )
            assert optimized.cx_count() <= baseline.cx_count() + swap_weight

    def test_multi_block_circuit_equivalence(self):
        circuit = QuantumCircuit(4)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.swap(1, 2)
        circuit.cx(2, 3)
        circuit.rz(0.4, 3)
        circuit.cx(2, 3)
        optimized = self.run_pass(circuit)
        assert_unitary_equiv(circuit, optimized)
        assert optimized.cx_count() <= 2 + 3 + 2

    def test_measurement_blocks_are_untouched(self):
        circuit = QuantumCircuit(2, 2)
        circuit.cx(0, 1)
        circuit.measure(0, 0)
        circuit.cx(0, 1)
        optimized = self.run_pass(circuit)
        assert optimized.count_gate("measure") == 1
        assert optimized.cx_count() == 2

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_preserves_unitary(self, seed):
        circuit = random_circuit(4, 7, seed=seed)
        optimized = self.run_pass(circuit)
        assert_unitary_equiv(circuit, optimized)


ONE_QUBIT_OPS = st.one_of(
    st.tuples(st.sampled_from(["h", "t", "sx", "x"]), st.sampled_from([(0,), (1,)])),
    st.tuples(st.sampled_from(["rz", "ry"]), st.sampled_from([(0,), (1,)]),
              st.sampled_from([0.4, -1.1, math.pi / 2])),
)
CX_OPS = st.tuples(st.just("cx"), st.sampled_from([(0, 1), (1, 0)]))
NON_CX_OPS = st.tuples(st.sampled_from(["swap", "cz"]), st.sampled_from([(0, 1), (1, 0)]))
ROTATION_OPS = st.tuples(st.sampled_from(["rz", "ry"]), st.sampled_from([(0,), (1,)]),
                         st.sampled_from([0.4, -1.1, 0.7]))
# Two or three CNOTs among generic rotations: the target count usually equals the CNOT
# count, so these reach the keep-before-assembly rule on both sides of its length bound.
CNOT_FORM = st.tuples(
    st.lists(CX_OPS, min_size=2, max_size=3), st.lists(ROTATION_OPS, max_size=5)
).flatmap(lambda parts: st.permutations(parts[0] + parts[1]))
# Lengths reach past the 0/1/4/6 op counts of the shortest synthesis cores.
BLOCKS = st.one_of(
    CNOT_FORM,
    st.lists(st.one_of(ONE_QUBIT_OPS, CX_OPS), min_size=2, max_size=9),
    st.lists(st.one_of(ONE_QUBIT_OPS, CX_OPS, NON_CX_OPS), min_size=2, max_size=9),
)


def reference_replacement(nodes, pair):
    """The keep/replace rule applied to a full synthesis: synthesise, then decide."""
    local = QuantumCircuit(2)
    for node in nodes:
        local.append(node.gate, tuple(0 if q == pair[0] else 1 for q in node.qubits))
    result = TwoQubitSynthesizer().synthesize(local.to_matrix())
    template = [(inst.gate, inst.qubits) for inst in result.circuit.data]
    two_qubit = [n for n in nodes if len(n.qubits) == 2]
    old_weight = sum(unitary_synthesis._TWO_QUBIT_WEIGHT.get(n.name, 3) for n in two_qubit)
    has_non_cx = any(n.name != "cx" for n in two_qubit)
    new_cx = result.circuit.cx_count()
    if new_cx > old_weight:
        return None
    if new_cx == old_weight and not has_non_cx and len(nodes) <= len(template):
        return None
    return template


def exact_template(template):
    if template is None:
        return None
    return [(g.name, tuple(float(p).hex() for p in g.params), q) for g, q in template]


class TestEarlyDecision:
    @settings(max_examples=200, deadline=None)
    @given(ops=BLOCKS)
    @example(ops=[("cx", (0, 1)), ("h", (0,)), ("cx", (0, 1))])
    @example(ops=[("cx", (0, 1)), ("rz", (0,), 0.4), ("cx", (1, 0)), ("ry", (1,), -1.1),
                  ("cx", (0, 1))])
    @example(ops=[("cx", (0, 1)), ("rz", (0,), 0.4), ("cx", (1, 0)), ("ry", (1,), -1.1),
                  ("cx", (0, 1)), ("h", (0,)), ("t", (1,))])
    @example(ops=[("cx", (0, 1)), ("cx", (0, 1))])
    @example(ops=[("swap", (0, 1)), ("h", (1,))])
    @example(ops=[("cx", (0, 1)), ("swap", (0, 1))])
    def test_outcome_matches_synthesise_then_decide(self, ops):
        assume(any(len(op[1]) == 2 for op in ops))
        circuit = QuantumCircuit(2)
        for name, qubits, *params in ops:
            circuit.append(make_gate(name, *params), qubits)
        dag = DAGCircuit.from_circuit(circuit)
        props = collect(circuit)
        (positions,), (pair,) = props["block_list"], props["block_pairs"]
        nodes = [dag.node(nid) for nid in positions]
        two_qubit = [n for n in nodes if len(n.qubits) == 2]
        old_weight = sum(unitary_synthesis._TWO_QUBIT_WEIGHT.get(n.name, 3) for n in two_qubit)
        cx_only = all(n.name == "cx" for n in two_qubit)
        assume(not (old_weight <= 1 and cx_only))  # the pass skips these blocks outright

        expected = exact_template(reference_replacement(nodes, pair))
        with mock.patch.dict(unitary_synthesis._SYNTH_CACHE, clear=True):
            decided = UnitarySynthesis._replacement(nodes, pair, old_weight, cx_only)
            memoised = UnitarySynthesis._replacement(nodes, pair, old_weight, cx_only)
        assert exact_template(decided) == expected
        assert exact_template(memoised) == expected

    def test_early_keeps_are_counted_as_misses(self):
        # Three CNOTs and three rotations: class 3, old weight 3, six ops -- kept
        # without assembling a template.
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.rz(0.4, 0)
        circuit.ry(-1.1, 1)
        circuit.cx(1, 0)
        circuit.ry(0.7, 0)
        circuit.cx(0, 1)
        with mock.patch.dict(unitary_synthesis._SYNTH_CACHE, clear=True), \
                mock.patch.object(TwoQubitSynthesizer, "synthesize", side_effect=AssertionError):
            before = COUNTERS.snapshot()
            optimized = PassManager([UnitarySynthesis()]).run(circuit)
            after = COUNTERS.snapshot()
        assert [inst.name for inst in optimized.data] == [inst.name for inst in circuit.data]
        for key, delta in (("misses", 1), ("decided_early", 1), ("hits", 0)):
            name = f"cache.kak_memo.{key}"
            assert after[name] - before[name] == delta, key
