"""Property tests for the flyweight gate layer.

Covers the contracts the vectorized hot path relies on: every named gate matrix is
unitary for arbitrary parameters, ``inverse()`` round-trips to the identity, interning
returns the same instance, every gate is immutable (so ``copy()`` shares it), the shared
matrix cache serves read-only arrays, and content fingerprints are stable across
processes (interning must not leak process-local state into hashes).
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.circuit import Instruction
from repro.circuit.gates import GATE_SPECS, Gate, gate, unitary_gate
from repro.exceptions import CircuitError
from repro.synthesis import allclose_up_to_global_phase
from repro.synthesis.linalg import is_unitary

PARAMETRISED = sorted(
    name for name, spec in GATE_SPECS.items()
    if spec.matrix_fn is not None and spec.num_params > 0
)
PARAMETERLESS = sorted(
    name for name, spec in GATE_SPECS.items()
    if spec.matrix_fn is not None and spec.num_params == 0
)
INVERTIBLE = sorted(
    name for name, spec in GATE_SPECS.items()
    if spec.matrix_fn is not None and name != "unitary"
)

angles = st.floats(
    min_value=-4.0 * math.pi, max_value=4.0 * math.pi,
    allow_nan=False, allow_infinity=False,
)


class TestUnitarity:
    @pytest.mark.parametrize("name", PARAMETERLESS)
    def test_fixed_matrices_unitary(self, name):
        assert is_unitary(gate(name).matrix())

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_parametrised_matrices_unitary_for_any_angles(self, data):
        name = data.draw(st.sampled_from(PARAMETRISED))
        params = [data.draw(angles) for _ in range(GATE_SPECS[name].num_params)]
        matrix = gate(name, *params).matrix()
        assert is_unitary(matrix, tol=1e-9)


class TestInverse:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_inverse_round_trips_to_identity(self, data):
        name = data.draw(st.sampled_from(INVERTIBLE))
        params = [data.draw(angles) for _ in range(GATE_SPECS[name].num_params)]
        g = gate(name, *params)
        product = g.inverse().matrix() @ g.matrix()
        identity = np.eye(product.shape[0])
        assert allclose_up_to_global_phase(product, identity, tol=1e-9)


class TestFlyweightInterning:
    def test_parameterless_gates_are_interned(self):
        for name in PARAMETERLESS + ["measure", "reset", "barrier"]:
            assert gate(name) is gate(name), name

    def test_parametrised_gates_are_not_interned(self):
        assert gate("rz", 0.5) is not gate("rz", 0.5)

    def test_with_label_returns_fresh_instance(self):
        labelled = gate("swap").with_label("ctrl:1")
        assert labelled is not gate("swap")
        assert labelled.label == "ctrl:1"
        relabelled = labelled.with_label("ctrl:0")
        assert relabelled is not labelled
        assert (labelled.label, relabelled.label) == ("ctrl:1", "ctrl:0")
        assert gate("swap").label is None

    def test_cache_token_is_stable_and_shared(self):
        assert gate("x").cache_token is gate("x").cache_token
        assert gate("rz", 0.5).cache_token == ("rz", (0.5,))
        with pytest.raises(CircuitError):
            Gate("unitary", (), np.eye(2)).cache_token


#: One gate of every kind a caller can build.
GATE_KINDS = {
    "interned": lambda: gate("cx"),
    "parametrised": lambda: gate("rz", 0.5),
    "with_label": lambda: gate("swap").with_label("ctrl:1"),
    "unitary": lambda: unitary_gate(np.eye(4)),
    "trusted": lambda: Gate.trusted("rz", (0.5,)),
}


class TestImmutableGates:
    """Every gate rejects attribute assignment once built, so sharing one is safe."""

    @pytest.mark.parametrize("kind", sorted(GATE_KINDS))
    def test_assignment_raises(self, kind):
        g = GATE_KINDS[kind]()
        before = dict(vars(g))
        for attr, value in (
            ("name", "x"), ("params", (1.0,)), ("label", "boom"), ("_matrix", None),
            ("extra", 1),
        ):
            with pytest.raises(CircuitError, match="immutable"):
                setattr(g, attr, value)
        with pytest.raises(CircuitError, match="immutable"):
            del g.label
        assert vars(g).keys() == before.keys()
        assert all(vars(g)[key] is value for key, value in before.items())

    @pytest.mark.parametrize("kind", sorted(GATE_KINDS))
    def test_copy_is_identity(self, kind):
        g = GATE_KINDS[kind]()
        assert g.copy() is g
        inst = Instruction(g, tuple(range(g.num_qubits)))
        assert inst.copy() is inst

    def test_unitary_matrix_is_a_private_read_only_array(self):
        source = np.eye(2, dtype=complex)
        g = unitary_gate(source)
        source[0, 0] = -1.0
        assert g.matrix()[0, 0] == 1.0
        with pytest.raises(ValueError):
            g._matrix[0, 0] = 2.0
        # matrix() still hands out a private writeable copy.
        mine = g.matrix()
        mine[0, 0] = 3.0
        assert g.matrix()[0, 0] == 1.0


class TestSharedMatrixCache:
    def test_identical_gates_share_the_matrix_array(self):
        assert gate("x").matrix() is gate("x").matrix()
        assert gate("rz", 0.25).matrix() is gate("rz", 0.25).matrix()

    def test_cached_matrices_are_read_only(self):
        matrix = gate("h").matrix()
        with pytest.raises(ValueError):
            matrix[0, 0] = 2.0

    def test_explicit_unitary_matrices_stay_private(self):
        g = Gate("unitary", (), np.eye(2))
        assert g.matrix() is not g.matrix()
        g.matrix()[0, 0] = 5.0  # mutating the copy must not corrupt the gate
        assert g.matrix()[0, 0] == 1.0


class TestCrossProcessFingerprints:
    """Interning and matrix caching must not leak into content hashes."""

    SCRIPT = """
import json
from repro import QuantumCircuit, Target, TranspileOptions
from repro.hardware import linear_coupling_map
from repro.service.jobs import TranspileJob

circuit = QuantumCircuit(3, name="fp-probe")
circuit.h(0)
circuit.cx(0, 1)
circuit.rz(0.3125, 2)
circuit.swap(1, 2, label="ctrl:1")
job = TranspileJob.from_circuit(
    circuit,
    target=Target(coupling_map=linear_coupling_map(3)),
    options=TranspileOptions(routing="sabre", seed=0),
)
print(json.dumps({"job": job.fingerprint()}))
"""

    def _run_probe(self, hash_seed):
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src)
        env["PYTHONHASHSEED"] = hash_seed
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True, text=True, env=env, check=True,
        )
        import json

        return json.loads(proc.stdout.strip())

    def test_job_fingerprint_identical_across_processes(self):
        first = self._run_probe("1")
        second = self._run_probe("2")  # different interpreter hash randomisation
        assert first == second
        assert len(first["job"]) == 64  # sha256 hex
