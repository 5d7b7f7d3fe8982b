"""Stochastic Pauli + readout noise model and noisy sampling (paper Sec. VI-D, Fig. 11).

The paper runs its success-rate experiment on the Qiskit Aer simulator with a noise model
generated from ``ibmq_montreal`` calibration data.  Here the equivalent noise model is built
from the synthetic calibration in :mod:`repro.hardware.calibration`:

* every one- and two-qubit gate is followed, with probability equal to the calibrated error
  rate, by a uniformly random non-identity Pauli on its qubits (depolarizing channel);
* every measured qubit is flipped with its calibrated readout error probability.

Sampling uses Monte-Carlo noise realisations: a configurable number of randomly drawn noisy
circuits are simulated exactly and the requested shots are distributed among them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.gates import gate as make_gate
from ..exceptions import SimulatorError
from ..hardware.calibration import DeviceCalibration
from .statevector import StatevectorSimulator, active_qubit_subcircuit

_PAULIS = ("x", "y", "z")


@dataclass
class NoiseModel:
    """Gate and readout error probabilities derived from device calibration."""

    calibration: DeviceCalibration
    scale: float = 1.0

    def gate_error(self, name: str, qubits: Tuple[int, ...]) -> float:
        if name in ("barrier", "measure", "reset") or not qubits:
            return 0.0
        return min(1.0, self.scale * self.calibration.gate_error(name, qubits))

    def readout_error(self, qubit: int) -> float:
        return min(1.0, self.scale * self.calibration.readout_error[qubit])

    @classmethod
    def from_calibration(cls, calibration: DeviceCalibration, scale: float = 1.0) -> "NoiseModel":
        return cls(calibration=calibration, scale=scale)


class NoisySimulator:
    """Monte-Carlo noisy simulation of routed circuits."""

    def __init__(
        self,
        noise_model: NoiseModel,
        *,
        realizations: int = 256,
        seed: Optional[int] = None,
    ) -> None:
        self.noise_model = noise_model
        self.realizations = realizations
        self.seed = seed
        self._ideal = StatevectorSimulator()

    # ------------------------------------------------------------------

    def _inject_noise(
        self, circuit: QuantumCircuit, physical_qubits: Sequence[int], rng: np.random.Generator
    ) -> QuantumCircuit:
        """One random noisy realisation of the circuit (gate errors only)."""
        noisy = circuit.copy_empty()
        for inst in circuit.data:
            if inst.name == "barrier":
                noisy.barrier(*inst.qubits)
                continue
            noisy.append(inst.gate, inst.qubits, inst.clbits)
            if inst.name in ("measure", "reset") or not inst.gate.is_unitary:
                continue
            error = self.noise_model.gate_error(
                inst.name, tuple(physical_qubits[q] for q in inst.qubits)
            )
            if error <= 0.0:
                continue
            if rng.random() < error:
                for q in inst.qubits:
                    pauli = _PAULIS[rng.integers(3)]
                    noisy.append(make_gate(pauli), (q,))
        return noisy

    def _apply_readout_error(
        self,
        counts: Dict[str, int],
        measured_physical: Sequence[int],
        rng: np.random.Generator,
    ) -> Dict[str, int]:
        flipped: Dict[str, int] = {}
        error_probs = [self.noise_model.readout_error(p) for p in measured_physical]
        for bitstring, count in counts.items():
            bits = list(bitstring)
            for _ in range(count):
                out = bits.copy()
                # bitstring is printed with the highest-index measured qubit first.
                for position, prob in enumerate(reversed(error_probs)):
                    if prob > 0 and rng.random() < prob:
                        out[position] = "1" if out[position] == "0" else "0"
                key = "".join(out)
                flipped[key] = flipped.get(key, 0) + 1
        return flipped

    # ------------------------------------------------------------------

    def run(
        self,
        circuit: QuantumCircuit,
        shots: int = 8192,
        *,
        measured_qubits: Optional[Sequence[int]] = None,
    ) -> Dict[str, int]:
        """Sample noisy measurement outcomes of a routed (physical) circuit.

        ``measured_qubits`` are physical qubit indices; they default to the circuit's measured
        qubits, or all active qubits when the circuit has no measurements.
        """
        rng = np.random.default_rng(self.seed)
        reduced, active = active_qubit_subcircuit(circuit, include=measured_qubits)
        mapping = {phys: idx for idx, phys in enumerate(active)}
        if measured_qubits is None:
            if circuit.has_measurements():
                measured_qubits = sorted(
                    {inst.qubits[0] for inst in circuit.data if inst.name == "measure"}
                )
            else:
                measured_qubits = list(active)
        for q in measured_qubits:
            if q not in mapping:
                raise SimulatorError(f"measured qubit {q} is not touched by the circuit")
        measured_local = [mapping[q] for q in measured_qubits]

        realizations = max(1, min(self.realizations, shots))
        base_shots = shots // realizations
        remainder = shots - base_shots * realizations
        total_counts: Dict[str, int] = {}
        for r in range(realizations):
            n_shots = base_shots + (1 if r < remainder else 0)
            if n_shots == 0:
                continue
            noisy = self._inject_noise(reduced, active, rng)
            counts = self._ideal.sample_counts(
                noisy, n_shots, seed=int(rng.integers(2 ** 31)), measured_qubits=measured_local
            )
            for key, value in counts.items():
                total_counts[key] = total_counts.get(key, 0) + value
        return self._apply_readout_error(total_counts, measured_qubits, rng)

    # ------------------------------------------------------------------

    def success_rate(
        self,
        circuit: QuantumCircuit,
        shots: int = 8192,
        *,
        expected: Optional[str] = None,
        measured_qubits: Optional[Sequence[int]] = None,
    ) -> float:
        """Fraction of shots that return the ideal (noise-free) most likely outcome."""
        reduced, active = active_qubit_subcircuit(circuit, include=measured_qubits)
        mapping = {phys: idx for idx, phys in enumerate(active)}
        if measured_qubits is None:
            if circuit.has_measurements():
                measured_qubits = sorted(
                    {inst.qubits[0] for inst in circuit.data if inst.name == "measure"}
                )
            else:
                measured_qubits = list(active)
        if expected is None:
            ideal_counts = self._ideal.sample_counts(
                reduced, 4096, seed=1, measured_qubits=[mapping[q] for q in measured_qubits]
            )
            expected = max(ideal_counts, key=ideal_counts.get)
        counts = self.run(circuit, shots, measured_qubits=measured_qubits)
        return counts.get(expected, 0) / float(shots)
