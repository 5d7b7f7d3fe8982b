"""Tests for the linear-algebra helpers."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.circuit import gate, random_unitary
from repro.exceptions import SynthesisError
from repro.synthesis import (
    allclose_up_to_global_phase,
    closest_unitary,
    fidelity_distance,
    global_phase_between,
    is_unitary,
    kron_factor_4x4,
)
from repro.synthesis.linalg import allclose, kron2

#: Float components biased towards the values where exact predicates can diverge.
SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan, math.inf, -math.inf, 1e-300])
COMPONENT = st.one_of(SPECIAL, st.floats(allow_nan=True, allow_infinity=True))
MATRIX_2X2 = st.lists(
    st.builds(complex, COMPONENT, COMPONENT), min_size=4, max_size=4
).map(lambda v: np.array(v, dtype=complex).reshape(2, 2))


class TestPredicates:
    def test_is_unitary_accepts_unitaries(self):
        assert is_unitary(np.eye(3))
        assert is_unitary(gate("h").matrix())
        assert is_unitary(random_unitary(8, seed=0))

    def test_is_unitary_rejects_non_unitaries(self):
        assert not is_unitary(np.ones((2, 2)))
        assert not is_unitary(np.eye(2)[:1])

    def test_global_phase_between(self):
        base = gate("h").matrix()
        phase = global_phase_between(np.exp(0.7j) * base, base)
        assert phase == pytest.approx(0.7)

    def test_global_phase_none_for_unrelated(self):
        assert global_phase_between(gate("h").matrix(), 2 * gate("h").matrix()) is None

    def test_allclose_up_to_global_phase(self):
        base = random_unitary(4, seed=1)
        assert allclose_up_to_global_phase(base, np.exp(1.2j) * base)
        assert not allclose_up_to_global_phase(base, random_unitary(4, seed=2))

    def test_fidelity_distance(self):
        base = random_unitary(4, seed=3)
        assert fidelity_distance(base, base) == pytest.approx(0.0, abs=1e-12)
        assert fidelity_distance(base, np.exp(0.5j) * base) == pytest.approx(0.0, abs=1e-12)
        assert fidelity_distance(np.eye(4), gate("swap").matrix()) > 0.1


class TestClosestUnitary:
    def test_projects_back_to_unitary(self):
        noisy = random_unitary(4, seed=5) + 1e-3 * np.random.default_rng(0).normal(size=(4, 4))
        projected = closest_unitary(noisy)
        assert is_unitary(projected)

    def test_identity_fixed_point(self):
        assert np.allclose(closest_unitary(np.eye(4)), np.eye(4))


class TestKronFactor:
    def test_factor_product_operator(self):
        a = random_unitary(2, seed=11)
        b = random_unitary(2, seed=12)
        g, fa, fb = kron_factor_4x4(np.kron(a, b))
        assert np.allclose(abs(g), 1.0, atol=1e-9)
        assert allclose_up_to_global_phase(np.kron(fa, fb), np.kron(a, b))

    def test_factor_with_global_phase(self):
        a = gate("h").matrix()
        b = gate("t").matrix()
        matrix = np.exp(0.3j) * np.kron(a, b)
        g, fa, fb = kron_factor_4x4(matrix)
        assert np.allclose(g * np.kron(fa, fb), matrix)

    def test_entangling_operator_rejected(self):
        with pytest.raises(SynthesisError):
            kron_factor_4x4(gate("cx").matrix())

    def test_wrong_shape_rejected(self):
        with pytest.raises(SynthesisError):
            kron_factor_4x4(np.eye(2))


class TestExactHelpers:
    @settings(max_examples=300, deadline=None)
    @given(a=MATRIX_2X2, b=MATRIX_2X2, transposed=st.booleans())
    @example(
        a=np.array([[-0.0, 1.0], [-0.0j, complex(-0.0, -0.0)]]),
        b=np.array([[complex(-0.0, 0.0), -1.0], [1j, complex(0.0, -0.0)]]),
        transposed=False,
    )
    def test_kron2_is_bitwise_np_kron(self, a, b, transposed):
        if transposed:  # non-contiguous operands
            a, b = a.T, b.T
        with np.errstate(invalid="ignore", over="ignore"):
            expected = np.kron(a, b)
            got = kron2(a, b)
        assert got.shape == (4, 4)
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=400, deadline=None)
    @given(
        base=st.lists(st.one_of(SPECIAL, st.floats(-2.0, 2.0)), min_size=8, max_size=8),
        offsets=st.lists(
            st.sampled_from([0.0, -0.0, 1e-10, 1e-9, 2e-9, 1e-6, -5e-6, 1e-5, 3e-5, math.inf]),
            min_size=8, max_size=8,
        ),
        scalar=st.one_of(st.none(), SPECIAL, st.floats(-1e-5, 1e-5)),
        atol=st.sampled_from([0.0, 1e-9, 1e-6, 5e-6, 1e-5]),
        complex_valued=st.booleans(),
    )
    def test_allclose_matches_np_allclose(self, base, offsets, scalar, atol, complex_valued):
        with np.errstate(invalid="ignore"):
            a = np.array(base)
            b = a + np.array(offsets)
            if complex_valued:
                a = a[:4] + 1j * a[4:]
                b = b[:4] + 1j * b[4:]
            if scalar is not None:
                b = scalar
            assert allclose(a, b, atol) == np.allclose(a, b, atol=atol)

    def test_allclose_non_finite_cases(self):
        # The isfinite(b) and a == b terms of numpy's isclose each decide one of these.
        finite = np.array([1.0, 2.0])
        with np.errstate(invalid="ignore"):
            for a, b in ((finite, math.inf), (np.array([math.inf]), math.inf),
                         (np.array([math.nan]), math.nan), (np.array([-0.0]), 0.0)):
                assert allclose(a, b, 1e-9) == np.allclose(a, b, atol=1e-9), (a, b)
