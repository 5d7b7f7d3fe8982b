"""Tests for the Weyl/KAK decomposition and two-qubit synthesis."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import QuantumCircuit, gate, random_unitary
from repro.exceptions import SynthesisError
from repro.synthesis import (
    TwoQubitSynthesizer,
    allclose_up_to_global_phase,
    canonical_matrix,
    canonicalize_coordinates,
    cnot_count,
    cnot_count_from_coordinates,
    synthesize_two_qubit,
    weyl_coordinates,
    weyl_decompose,
)
from repro.synthesis.linalg import MAGIC_BASIS
from repro.synthesis.two_qubit import (
    SHORTEST_CORE_OPS,
    _core_identity,
    _core_single_cx,
    _core_two_cx,
    _ThreeCXTemplate,
)

QUARTER_PI = math.pi / 4


def random_su4(seed: int) -> np.ndarray:
    return random_unitary(4, seed=seed)


def exact(result):
    """Everything a synthesis emits, bit for bit."""
    ops = [
        (inst.name, tuple(float(p).hex() for p in inst.gate.params), inst.qubits)
        for inst in result.circuit.data
    ]
    return ops, float(result.global_phase).hex(), result.cnot_count, result.optimal


def class_with_locals(coords, seed: int) -> np.ndarray:
    """A unitary of Weyl class ``coords`` dressed in random single-qubit gates."""
    rng = np.random.default_rng(seed)
    before = np.kron(random_unitary(2, seed=rng.integers(1 << 30)),
                     random_unitary(2, seed=rng.integers(1 << 30)))
    after = np.kron(random_unitary(2, seed=rng.integers(1 << 30)),
                    random_unitary(2, seed=rng.integers(1 << 30)))
    return after @ canonical_matrix(*coords) @ before


class TestWeylCoordinates:
    def test_identity(self):
        assert np.allclose(weyl_coordinates(np.eye(4)), (0, 0, 0), atol=1e-7)

    def test_cnot_class(self):
        assert np.allclose(weyl_coordinates(gate("cx").matrix()), (QUARTER_PI, 0, 0), atol=1e-7)

    def test_cz_same_class_as_cnot(self):
        assert np.allclose(
            weyl_coordinates(gate("cz").matrix()), weyl_coordinates(gate("cx").matrix()), atol=1e-7
        )

    def test_swap_class(self):
        assert np.allclose(
            weyl_coordinates(gate("swap").matrix()),
            (QUARTER_PI, QUARTER_PI, QUARTER_PI),
            atol=1e-7,
        )

    def test_iswap_class(self):
        coords = weyl_coordinates(gate("iswap").matrix())
        assert np.allclose(coords, (QUARTER_PI, QUARTER_PI, 0), atol=1e-7)

    def test_local_gates_are_identity_class(self):
        matrix = np.kron(random_unitary(2, seed=1), random_unitary(2, seed=2))
        assert np.allclose(weyl_coordinates(matrix), (0, 0, 0), atol=1e-6)

    def test_invariance_under_local_gates(self):
        target = random_su4(5)
        locals_before = np.kron(random_unitary(2, seed=6), random_unitary(2, seed=7))
        locals_after = np.kron(random_unitary(2, seed=8), random_unitary(2, seed=9))
        assert np.allclose(
            weyl_coordinates(target),
            weyl_coordinates(locals_after @ target @ locals_before),
            atol=1e-6,
        )

    def test_rzz_angle_maps_to_coordinate(self):
        circuit = QuantumCircuit(2)
        circuit.rzz(0.8, 0, 1)
        coords = weyl_coordinates(circuit.to_matrix())
        assert coords[0] == pytest.approx(0.4, abs=1e-7)
        assert coords[1] == pytest.approx(0.0, abs=1e-7)

    def test_eigensolver_nonconvergence_falls_back(self):
        # M2 of this SWAP-class unitary holds ~1e-34 residue on which LAPACK's general
        # eigensolver reports "Eigenvalues did not converge".
        a = 0.16796518616009276 * (1 + 1j)
        b = 0.6868680340780209 * (1 - 1j)
        unitary = np.array(
            [[a, 0, b, 0], [b, 0, a, 0], [0, a, 0, b], [0, b, 0, a]], dtype=complex
        )
        assert np.allclose(
            weyl_coordinates(unitary), (QUARTER_PI, QUARTER_PI, QUARTER_PI), atol=1e-7
        )
        assert cnot_count(unitary) == 3

    def test_rejects_non_unitary(self):
        with pytest.raises(SynthesisError):
            weyl_coordinates(np.ones((4, 4)))


class TestCanonicalizeCoordinates:
    def test_already_canonical(self):
        assert canonicalize_coordinates((0.3, 0.2, 0.1)) == pytest.approx((0.3, 0.2, 0.1))

    def test_sorting(self):
        assert canonicalize_coordinates((0.1, 0.3, 0.2)) == pytest.approx((0.3, 0.2, 0.1))

    def test_half_pi_shift_is_identity_class(self):
        assert canonicalize_coordinates((math.pi / 2, 0, 0)) == pytest.approx((0, 0, 0), abs=1e-9)

    def test_chamber_fold(self):
        # x + y > pi/2 must fold back into the chamber.
        x, y, z = canonicalize_coordinates((0.5 * math.pi * 0.9, 0.5 * math.pi * 0.8, 0.1))
        assert x + y <= math.pi / 2 + 1e-9
        assert x >= y >= z >= 0

    def test_negative_coordinates(self):
        assert canonicalize_coordinates((-0.2, 0.2, 0.0)) == pytest.approx((0.2, 0.2, 0.0), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(st.floats(-4, 4), st.floats(-4, 4), st.floats(-4, 4)))
    def test_property_output_in_chamber(self, coords):
        x, y, z = canonicalize_coordinates(coords)
        assert x >= y >= z >= -1e-9
        assert x + y <= math.pi / 2 + 1e-6
        assert x <= math.pi / 2

    def test_canonical_matrix_matches_coordinates(self):
        coords = (0.31, 0.22, 0.05)
        assert np.allclose(weyl_coordinates(canonical_matrix(*coords)), coords, atol=1e-7)


class TestCnotCount:
    @pytest.mark.parametrize(
        "name,expected",
        [("cx", 1), ("cz", 1), ("swap", 3), ("iswap", 2), ("dcx", 2), ("ch", 1)],
    )
    def test_named_gates(self, name, expected):
        assert cnot_count(gate(name).matrix()) == expected

    def test_identity_and_local(self):
        assert cnot_count(np.eye(4)) == 0
        assert cnot_count(np.kron(gate("h").matrix(), gate("t").matrix())) == 0

    def test_cx_followed_by_swap_costs_two(self):
        # The paper's Figure 1(b): a SWAP merged into an adjacent CNOT block costs one extra CNOT.
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.swap(0, 1)
        assert cnot_count(circuit.to_matrix()) == 2

    def test_three_cnot_block_absorbs_swap(self):
        # A generic 3-CNOT block times SWAP stays within 3 CNOTs ("free" SWAP, Sec. III).
        block = random_su4(17)
        assert cnot_count(gate("swap").matrix() @ block) <= 3

    def test_two_cnot_circuits_classified(self):
        for seed in range(5):
            circuit = QuantumCircuit(2)
            rng = np.random.default_rng(seed)
            circuit.cx(0, 1)
            circuit.rz(rng.uniform(0.3, 1.0), 0)
            circuit.ry(rng.uniform(0.3, 1.0), 1)
            circuit.cx(0, 1)
            assert cnot_count(circuit.to_matrix()) <= 2

    def test_generic_unitary_needs_three(self):
        counts = [cnot_count(random_su4(seed)) for seed in range(10)]
        assert all(c == 3 for c in counts)

    def test_count_from_coordinates(self):
        assert cnot_count_from_coordinates((0, 0, 0)) == 0
        assert cnot_count_from_coordinates((QUARTER_PI, 0, 0)) == 1
        assert cnot_count_from_coordinates((0.3, 0.2, 0)) == 2
        assert cnot_count_from_coordinates((0.3, 0.2, 0.1)) == 3


class TestWeylDecompose:
    def test_reconstruction_named_gates(self):
        for name in ("cx", "cz", "swap", "iswap", "dcx", "ch"):
            matrix = gate(name).matrix()
            decomposition = weyl_decompose(matrix)
            assert np.allclose(decomposition.matrix(), matrix, atol=1e-6)

    def test_reconstruction_random(self):
        for seed in range(20):
            matrix = random_su4(seed)
            decomposition = weyl_decompose(matrix)
            assert np.allclose(decomposition.matrix(), matrix, atol=1e-6)

    def test_coordinates_in_chamber(self):
        for seed in range(10):
            decomposition = weyl_decompose(random_su4(100 + seed))
            x, y, z = decomposition.coords
            assert x >= y >= z >= -1e-9
            assert x + y <= math.pi / 2 + 1e-6

    def test_local_factors_are_single_qubit_unitaries(self):
        decomposition = weyl_decompose(random_su4(55))
        for factor in (decomposition.k1_q0, decomposition.k1_q1,
                       decomposition.k2_q0, decomposition.k2_q1):
            assert factor.shape == (2, 2)
            assert np.allclose(factor @ factor.conj().T, np.eye(2), atol=1e-7)

    def test_coordinates_match_fast_path(self):
        for seed in range(10):
            matrix = random_su4(200 + seed)
            assert np.allclose(
                weyl_decompose(matrix).coords, weyl_coordinates(matrix), atol=1e-6
            )

    def test_rejects_wrong_shape(self):
        with pytest.raises(SynthesisError):
            weyl_decompose(np.eye(2))


class TestSynthesis:
    def test_named_gates_get_optimal_counts(self):
        expectations = {"cx": 1, "cz": 1, "swap": 3, "iswap": 2, "dcx": 2}
        for name, expected in expectations.items():
            matrix = gate(name).matrix()
            result = TwoQubitSynthesizer().synthesize(matrix)
            assert result.cnot_count == expected
            assert allclose_up_to_global_phase(result.circuit.to_matrix(), matrix, 1e-6)

    def test_random_unitaries_synthesise_with_three_cnots(self):
        synthesizer = TwoQubitSynthesizer()
        for seed in range(15):
            matrix = random_su4(300 + seed)
            result = synthesizer.synthesize(matrix)
            assert result.cnot_count == 3
            assert result.optimal
            assert allclose_up_to_global_phase(result.circuit.to_matrix(), matrix, 1e-6)

    def test_local_unitary_needs_no_cnots(self):
        matrix = np.kron(random_unitary(2, seed=31), random_unitary(2, seed=32))
        result = TwoQubitSynthesizer().synthesize(matrix)
        assert result.cnot_count == 0
        assert allclose_up_to_global_phase(result.circuit.to_matrix(), matrix, 1e-6)

    def test_two_cnot_class_synthesis(self):
        circuit = QuantumCircuit(2)
        circuit.rzz(0.7, 0, 1)
        circuit.rxx(0.4, 0, 1)
        matrix = circuit.to_matrix()
        result = TwoQubitSynthesizer().synthesize(matrix)
        assert result.cnot_count == 2
        assert allclose_up_to_global_phase(result.circuit.to_matrix(), matrix, 1e-6)

    def test_synthesised_gate_names(self):
        result = TwoQubitSynthesizer().synthesize(random_su4(77))
        assert set(inst.name for inst in result.circuit.data) <= {"cx", "u", "rx", "rz", "ry",
                                                                  "s", "sdg"}

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_synthesis_reproduces_unitary(self, seed):
        matrix = random_su4(seed)
        circuit = synthesize_two_qubit(matrix)
        assert circuit.cx_count() <= 3
        assert allclose_up_to_global_phase(circuit.to_matrix(), matrix, 1e-5)

    def test_off_chamber_two_cnot_class_stays_within_three_cnots(self):
        # Seed 807 (about 0.25% of the property test's draws) decomposes to the
        # 2-CNOT class with coordinates just off the canonical chamber, where no 2-CNOT
        # core pairs them right; the 3-CNOT template must catch it before the 4-CNOT
        # fallback does.
        matrix = random_su4(807)
        decomposition = weyl_decompose(matrix)
        assert decomposition.cnot_count() == 2
        result = TwoQubitSynthesizer().synthesize(matrix, decomposition)
        assert result.cnot_count <= 3
        assert result.circuit.cx_count() == result.cnot_count
        assert allclose_up_to_global_phase(result.circuit.to_matrix(), matrix, 1e-5)

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(0, math.pi / 4), st.floats(0, math.pi / 4), st.floats(0, math.pi / 4)
    )
    def test_property_canonical_gates_synthesise_exactly(self, a, b, c):
        coords = tuple(sorted((a, b, c), reverse=True))
        matrix = canonical_matrix(*coords)
        circuit = synthesize_two_qubit(matrix)
        assert allclose_up_to_global_phase(circuit.to_matrix(), matrix, 1e-5)
        assert circuit.cx_count() <= 3

    @settings(max_examples=40, deadline=None)
    @given(
        cls=st.sampled_from([
            (0.0, 0.0, 0.0), (QUARTER_PI, 0.0, 0.0), (0.5, 0.2, 0.0), (QUARTER_PI, 0.3, 0.0),
            (0.6, 0.4, 0.1), (QUARTER_PI, QUARTER_PI, QUARTER_PI),
        ]),
        seed=st.integers(0, 10_000),
        haar=st.booleans(),
    )
    def test_given_decomposition_is_bitwise_the_same_synthesis(self, cls, seed, haar):
        matrix = random_su4(seed) if haar else class_with_locals(cls, seed)
        synthesizer = TwoQubitSynthesizer()
        assert exact(synthesizer.synthesize(matrix, weyl_decompose(matrix))) == exact(
            synthesizer.synthesize(matrix)
        )

    def test_retry_weights_do_not_depend_on_earlier_calls(self):
        # M2 = O^T D O with D = (e^ia, e^-ia, -e^ia, -e^-ia): the real and the imaginary
        # part of M2 both have doubly degenerate spectra, so the first two attempts of the
        # orthogonal diagonalisation fail and random weights pick the eigenbasis.  Those
        # weights must not come from a process-wide generator.
        a = 0.37
        d = np.array([np.exp(1j * a), np.exp(-1j * a), -np.exp(1j * a), -np.exp(-1j * a)])
        o, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(4, 4)))
        if np.linalg.det(o) < 0:
            o[:, 0] = -o[:, 0]
        unitary = MAGIC_BASIS @ np.diag(np.sqrt(d)) @ o @ MAGIC_BASIS.conj().T
        assert np.allclose(weyl_coordinates(unitary), (QUARTER_PI, 0.6004, 0.0), atol=1e-4)
        first = TwoQubitSynthesizer().synthesize(unitary)
        second = TwoQubitSynthesizer().synthesize(unitary)
        assert exact(first) == exact(second)
        assert first.cnot_count == 2
        assert allclose_up_to_global_phase(first.circuit.to_matrix(), unitary, 1e-6)

    def test_shortest_core_ops_are_the_built_core_lengths(self):
        coords = (0.6, 0.4, 0.1)
        built = [
            list(_core_identity(coords)),
            list(_core_single_cx(coords)),
            list(_core_two_cx(coords)),
            list(_ThreeCXTemplate.candidates(coords)),
        ]
        for count, cores in enumerate(built):
            assert cores
            assert all(core.cx_count() == count for core in cores)
            assert SHORTEST_CORE_OPS[count] == min(len(core.data) for core in cores)
