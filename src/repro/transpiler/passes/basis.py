"""Gate decomposition into the one- and two-qubit gate set used for routing.

The first compiler step (paper Sec. II-B) decomposes high-level gates (Toffoli, controlled
rotations, multi-qubit oracles) into single-qubit gates plus CNOTs so that the routing pass
only ever sees one- and two-qubit operations.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ...circuit.circuit import Instruction, QuantumCircuit
from ...circuit.dag import DAGCircuit
from ...circuit.gates import Gate, gate as make_gate
from ...exceptions import TranspilerError
from ...synthesis.two_qubit import TwoQubitSynthesizer
from ..passmanager import AnalysisPass, PropertySet, TransformationPass

#: Gate names that are already acceptable input for the routing stage.
_ROUTABLE_1Q = {
    "id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg",
    "rx", "ry", "rz", "p", "u1", "u2", "u3", "u",
}
_ROUTABLE_2Q = {"cx", "swap"}
_DIRECTIVES = {"measure", "barrier", "reset"}


class Decompose(TransformationPass):
    """Decompose every gate into single-qubit gates, CNOTs and (optionally) SWAPs.

    ``keep_swaps`` keeps explicit SWAP gates in the circuit (they are handled natively by the
    routing stage); when False, SWAPs are lowered to three CNOTs here.
    """

    def __init__(self, keep_swaps: bool = True) -> None:
        super().__init__()
        self.keep_swaps = keep_swaps
        self._synthesizer = TwoQubitSynthesizer()

    def run(self, dag: DAGCircuit, property_set: PropertySet) -> DAGCircuit:
        out = dag.copy_empty_like()
        for node in dag.op_nodes():
            for new_inst in self._decompose_instruction(node.to_instruction()):
                out.add_node(new_inst.gate, new_inst.qubits, new_inst.clbits)
        return out

    # ------------------------------------------------------------------

    def _decompose_instruction(self, inst: Instruction) -> List[Instruction]:
        name = inst.name
        if name in _DIRECTIVES or name in _ROUTABLE_1Q:
            return [inst]
        if name == "cx":
            return [inst]
        if name == "swap":
            if self.keep_swaps:
                return [inst]
            a, b = inst.qubits
            return [
                Instruction(make_gate("cx"), (a, b)),
                Instruction(make_gate("cx"), (b, a)),
                Instruction(make_gate("cx"), (a, b)),
            ]
        if name == "cz":
            control, target = inst.qubits
            return [
                Instruction(make_gate("h"), (target,)),
                Instruction(make_gate("cx"), (control, target)),
                Instruction(make_gate("h"), (target,)),
            ]
        if name == "cy":
            control, target = inst.qubits
            return [
                Instruction(make_gate("sdg"), (target,)),
                Instruction(make_gate("cx"), (control, target)),
                Instruction(make_gate("s"), (target,)),
            ]
        if name in ("cp", "cu1"):
            (theta,) = inst.gate.params
            control, target = inst.qubits
            return [
                Instruction(make_gate("p", theta / 2.0), (control,)),
                Instruction(make_gate("cx"), (control, target)),
                Instruction(make_gate("p", -theta / 2.0), (target,)),
                Instruction(make_gate("cx"), (control, target)),
                Instruction(make_gate("p", theta / 2.0), (target,)),
            ]
        if name == "crz":
            (theta,) = inst.gate.params
            control, target = inst.qubits
            return [
                Instruction(make_gate("rz", theta / 2.0), (target,)),
                Instruction(make_gate("cx"), (control, target)),
                Instruction(make_gate("rz", -theta / 2.0), (target,)),
                Instruction(make_gate("cx"), (control, target)),
            ]
        if name == "rzz":
            (theta,) = inst.gate.params
            a, b = inst.qubits
            return [
                Instruction(make_gate("cx"), (a, b)),
                Instruction(make_gate("rz", theta), (b,)),
                Instruction(make_gate("cx"), (a, b)),
            ]
        if name == "ccx":
            return self._decompose_ccx(*inst.qubits)
        if name == "cswap":
            control, a, b = inst.qubits
            return (
                [Instruction(make_gate("cx"), (b, a))]
                + self._decompose_ccx(control, a, b)
                + [Instruction(make_gate("cx"), (b, a))]
            )
        if len(inst.qubits) == 2 and inst.gate.is_unitary:
            # Generic two-qubit gates (crx, cry, ch, iswap, explicit unitaries, ...) are
            # re-synthesised into CNOTs plus single-qubit gates.
            return self._synthesize_two_qubit(inst)
        if len(inst.qubits) == 1 and inst.gate.is_unitary and name == "unitary":
            from ...synthesis.one_qubit import u_params_from_matrix

            theta, phi, lam, _ = u_params_from_matrix(inst.gate.matrix())
            return [Instruction(make_gate("u", theta, phi, lam), inst.qubits)]
        raise TranspilerError(f"cannot decompose gate '{name}' on {inst.qubits}")

    def _synthesize_two_qubit(self, inst: Instruction) -> List[Instruction]:
        result = self._synthesizer.synthesize(inst.gate.matrix())
        mapped: List[Instruction] = []
        for sub in result.circuit.data:
            qubits = tuple(inst.qubits[q] for q in sub.qubits)
            mapped.append(Instruction(sub.gate, qubits))
        return mapped

    @staticmethod
    def _decompose_ccx(a: int, b: int, c: int) -> List[Instruction]:
        """Standard 6-CNOT Toffoli decomposition (controls ``a``, ``b``, target ``c``)."""
        g = make_gate
        return [
            Instruction(g("h"), (c,)),
            Instruction(g("cx"), (b, c)),
            Instruction(g("tdg"), (c,)),
            Instruction(g("cx"), (a, c)),
            Instruction(g("t"), (c,)),
            Instruction(g("cx"), (b, c)),
            Instruction(g("tdg"), (c,)),
            Instruction(g("cx"), (a, c)),
            Instruction(g("t"), (b,)),
            Instruction(g("t"), (c,)),
            Instruction(g("h"), (c,)),
            Instruction(g("cx"), (a, b)),
            Instruction(g("t"), (a,)),
            Instruction(g("tdg"), (b,)),
            Instruction(g("cx"), (a, b)),
        ]


class CheckRoutable(AnalysisPass):
    """Verify the DAG only contains gates the routing stage can handle."""

    def run(self, dag: DAGCircuit, property_set: PropertySet) -> None:
        for node in dag.op_nodes():
            if node.name in _DIRECTIVES:
                continue
            if len(node.qubits) == 1 and (node.name in _ROUTABLE_1Q or node.name == "unitary"):
                continue
            if len(node.qubits) == 2 and node.name in _ROUTABLE_2Q:
                continue
            raise TranspilerError(
                f"gate '{node.name}' on {node.qubits} is not routable; run Decompose first"
            )
