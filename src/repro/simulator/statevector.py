"""Statevector simulator.

Supports the unitary part of a circuit plus terminal measurements.  Gate application uses
tensor reshaping, so circuits up to ~20 qubits simulate comfortably; the noise experiments of
Fig. 11 use 4-5 qubit circuits mapped to a 27-qubit device, which are handled by simulating
only the active qubits.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..exceptions import SimulatorError
from ..obs.counters import COUNTERS

_MAX_QUBITS = 22


@lru_cache(maxsize=4096)
def _gate_tensor(token: Tuple[str, Tuple[float, ...]], k: int) -> np.ndarray:
    """Reshaped ``(2,) * 2k`` tensor of a named gate's matrix (shared, read-only)."""
    from ..circuit.gates import _shared_matrix

    # A reshaped view of the shared read-only matrix; inherits non-writeability.
    return _shared_matrix(*token).reshape((2,) * (2 * k))


@lru_cache(maxsize=4096)
def _tensordot_axes(num_qubits: int, qubits: Tuple[int, ...]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Precomputed ``(gate axes, state axes)`` pairs for :func:`np.tensordot`."""
    k = len(qubits)
    state_axes = tuple(num_qubits - 1 - q for q in reversed(qubits))
    return tuple(range(k, 2 * k)), state_axes


def _tensor_cache_counters() -> Dict[str, int]:
    gate = _gate_tensor.cache_info()
    axes = _tensordot_axes.cache_info()
    return {
        "hits": gate.hits + axes.hits,
        "misses": gate.misses + axes.misses,
        "size": gate.currsize + axes.currsize,
    }


COUNTERS.register_provider("cache.sim_tensor", _tensor_cache_counters)


def _apply_instruction(state: np.ndarray, inst, num_qubits: int) -> np.ndarray:
    """Apply one instruction, serving named gates from the shared tensor cache."""
    gate_obj = inst.gate
    qubits = tuple(inst.qubits)
    k = len(qubits)
    if gate_obj.name == "unitary":
        gate_tensor = gate_obj.matrix().reshape((2,) * (2 * k))
    else:
        gate_tensor = _gate_tensor(gate_obj.cache_token, k)
    tensor = state.reshape([2] * num_qubits)
    gate_axes, axes = _tensordot_axes(num_qubits, qubits)
    moved = np.tensordot(gate_tensor, tensor, axes=(gate_axes, axes))
    # tensordot puts the gate's output axes first; move them back to their original
    # positions (output axis j corresponds to original state axis axes[j]).
    result = np.moveaxis(moved, list(range(k)), axes)
    return result.reshape(-1)


class StatevectorSimulator:
    """Ideal statevector simulation of a circuit's unitary part."""

    def __init__(self, max_qubits: int = _MAX_QUBITS) -> None:
        self.max_qubits = max_qubits

    def run(self, circuit: QuantumCircuit, initial_state: Optional[np.ndarray] = None) -> np.ndarray:
        """Final statevector of the circuit (measurements and barriers are ignored)."""
        n = circuit.num_qubits
        if n > self.max_qubits:
            raise SimulatorError(f"circuit too large to simulate ({n} qubits > {self.max_qubits})")
        if initial_state is None:
            state = np.zeros(2 ** n, dtype=complex)
            state[0] = 1.0
        else:
            state = np.asarray(initial_state, dtype=complex).copy()
            if state.shape != (2 ** n,):
                raise SimulatorError("initial state has the wrong dimension")
        for inst in circuit.data:
            if inst.name in ("barrier", "measure"):
                continue
            if inst.name == "reset":
                raise SimulatorError("reset is not supported by the statevector simulator")
            state = _apply_instruction(state, inst, n)
        return state

    def probabilities(self, circuit: QuantumCircuit) -> np.ndarray:
        """Measurement probabilities over the full computational basis."""
        state = self.run(circuit)
        return np.abs(state) ** 2

    def sample_counts(
        self, circuit: QuantumCircuit, shots: int, seed: Optional[int] = None,
        measured_qubits: Optional[Sequence[int]] = None,
    ) -> Dict[str, int]:
        """Sample measurement outcomes (bitstrings are little-endian: qubit 0 is the rightmost)."""
        probs = self.probabilities(circuit)
        rng = np.random.default_rng(seed)
        outcomes = rng.choice(len(probs), size=shots, p=probs / probs.sum())
        if measured_qubits is None:
            if circuit.has_measurements():
                measured_qubits = sorted(
                    {inst.qubits[0] for inst in circuit.data if inst.name == "measure"}
                )
            else:
                measured_qubits = list(range(circuit.num_qubits))
        counts: Dict[str, int] = {}
        for outcome in outcomes:
            bits = "".join(
                "1" if (outcome >> q) & 1 else "0" for q in reversed(list(measured_qubits))
            )
            counts[bits] = counts.get(bits, 0) + 1
        return counts


def active_qubit_subcircuit(
    circuit: QuantumCircuit, include: Optional[Sequence[int]] = None
) -> Tuple[QuantumCircuit, List[int]]:
    """Restrict a circuit to the qubits it actually touches (for simulating routed circuits).

    ``include`` lists extra qubits (e.g. measured but otherwise idle wires) to keep in the
    reduced circuit even though no gate acts on them.
    """
    active = sorted(set(circuit.active_qubits()) | set(include or ()))
    if not active:
        return QuantumCircuit(1, circuit.num_clbits, circuit.name), [0]
    mapping = {q: i for i, q in enumerate(active)}
    reduced = QuantumCircuit(len(active), circuit.num_clbits, circuit.name)
    for inst in circuit.data:
        qubits = tuple(mapping[q] for q in inst.qubits)
        if inst.name == "barrier":
            reduced.barrier(*qubits)
        else:
            reduced.append(inst.gate, qubits, inst.clbits)
    return reduced, active
