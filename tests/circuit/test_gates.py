"""Unit tests for gate definitions and matrices."""

import math

import numpy as np
import pytest

from repro.circuit import GATE_SPECS, Gate, HARDWARE_BASIS, SELF_INVERSE_GATES, gate, unitary_gate
from repro.exceptions import CircuitError
from repro.synthesis import allclose_up_to_global_phase, is_unitary


X = gate("x").matrix()
Y = gate("y").matrix()
Z = gate("z").matrix()
H = gate("h").matrix()
CX = gate("cx").matrix()


class TestGateMatrices:
    @pytest.mark.parametrize("name", [n for n, s in GATE_SPECS.items()
                                      if s.matrix_fn is not None and s.num_params == 0])
    def test_fixed_gates_are_unitary(self, name):
        assert is_unitary(gate(name).matrix())

    @pytest.mark.parametrize("name", ["rx", "ry", "rz", "p", "cp", "crx", "cry", "crz",
                                      "rxx", "ryy", "rzz"])
    def test_parametrised_gates_are_unitary(self, name):
        assert is_unitary(gate(name, 0.7).matrix())

    def test_pauli_algebra(self):
        assert np.allclose(X @ Y, 1j * Z)
        assert np.allclose(Y @ Z, 1j * X)
        assert np.allclose(Z @ X, 1j * Y)

    def test_hadamard_conjugation(self):
        assert np.allclose(H @ X @ H, Z)
        assert np.allclose(H @ Z @ H, X)

    def test_s_and_t(self):
        s = gate("s").matrix()
        t = gate("t").matrix()
        assert np.allclose(t @ t, s)
        assert np.allclose(s @ s, Z)

    def test_sx_squares_to_x(self):
        sx = gate("sx").matrix()
        assert np.allclose(sx @ sx, X)

    def test_rotation_periodicity(self):
        assert allclose_up_to_global_phase(gate("rz", 2 * math.pi).matrix(), np.eye(2))
        assert allclose_up_to_global_phase(gate("rx", 2 * math.pi).matrix(), np.eye(2))

    def test_rz_vs_phase(self):
        assert allclose_up_to_global_phase(gate("rz", 0.3).matrix(), gate("p", 0.3).matrix())

    def test_u_gate_special_cases(self):
        assert allclose_up_to_global_phase(gate("u", math.pi, 0, math.pi).matrix(), X)
        assert allclose_up_to_global_phase(gate("u", math.pi / 2, 0, math.pi).matrix(), H)

    def test_cx_matrix_little_endian(self):
        expected = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]])
        assert np.allclose(CX, expected)

    def test_cz_symmetric(self):
        cz = gate("cz").matrix()
        assert np.allclose(cz, np.diag([1, 1, 1, -1]))

    def test_swap_matrix(self):
        swap = gate("swap").matrix()
        # |01> <-> |10>
        assert swap[1, 2] == 1 and swap[2, 1] == 1 and swap[0, 0] == 1 and swap[3, 3] == 1

    def test_controlled_rotations_act_on_target(self):
        crz = gate("crz", 0.5).matrix()
        # Control=0 subspace is identity.
        assert np.allclose(crz[np.ix_([0, 2], [0, 2])], np.eye(2))

    def test_ccx_flips_target_when_both_controls_set(self):
        ccx = gate("ccx").matrix()
        state = np.zeros(8)
        state[3] = 1.0  # q0=1, q1=1, q2=0
        assert abs((ccx @ state)[7] - 1.0) < 1e-12

    def test_cswap_swaps_when_control_set(self):
        cswap = gate("cswap").matrix()
        state = np.zeros(8)
        state[3] = 1.0  # control q0=1, q1=1, q2=0
        assert abs((cswap @ state)[5] - 1.0) < 1e-12

    def test_rzz_diagonal(self):
        rzz = gate("rzz", 0.4).matrix()
        assert np.allclose(rzz, np.diag(np.diag(rzz)))


class TestGateObject:
    def test_unknown_gate_rejected(self):
        with pytest.raises(CircuitError):
            Gate("not_a_gate")

    def test_wrong_param_count_rejected(self):
        with pytest.raises(CircuitError):
            Gate("rz", ())
        with pytest.raises(CircuitError):
            Gate("x", (0.1,))

    def test_unitary_gate_requires_matrix(self):
        with pytest.raises(CircuitError):
            Gate("unitary")

    def test_unitary_gate_num_qubits(self):
        two_qubit = unitary_gate(np.eye(4))
        assert two_qubit.num_qubits == 2
        one_qubit = unitary_gate(np.eye(2))
        assert one_qubit.num_qubits == 1

    def test_unitary_gate_bad_shape_rejected(self):
        with pytest.raises(CircuitError):
            unitary_gate(np.eye(3))

    @pytest.mark.parametrize("name", SELF_INVERSE_GATES)
    def test_self_inverse_gates(self, name):
        if name == "id":
            return
        matrix = gate(name).matrix()
        assert np.allclose(matrix @ matrix, np.eye(matrix.shape[0]))

    @pytest.mark.parametrize(
        "name,params",
        [("x", ()), ("h", ()), ("s", ()), ("t", ()), ("sx", ()), ("rz", (0.3,)),
         ("rx", (1.2,)), ("u", (0.5, 0.2, 0.1)), ("cp", (0.7,)), ("swap", ()),
         ("iswap", ()), ("crx", (0.9,)), ("u2", (0.3, 0.4))],
    )
    def test_inverse_matrices(self, name, params):
        g = gate(name, *params)
        product = g.inverse().matrix() @ g.matrix()
        assert allclose_up_to_global_phase(product, np.eye(product.shape[0]))

    def test_directive_has_no_matrix(self):
        with pytest.raises(CircuitError):
            gate("measure").matrix()

    def test_directive_cannot_be_inverted(self):
        with pytest.raises(CircuitError):
            gate("measure").inverse()

    def test_copy_returns_the_gate_itself(self):
        g = gate("rz", 0.5)
        assert g.copy() is g
        assert g.with_label("tag") == Gate("rz", (0.5,), None, "tag")

    def test_hardware_basis_names_exist(self):
        for name in HARDWARE_BASIS:
            assert name in GATE_SPECS
