"""Single-qubit gate optimization (the Qiskit ``Optimize1qGates`` pass, paper Sec. II-C).

Adjacent runs of single-qubit gates on the same wire are multiplied together and re-emitted
either as a single ``u`` gate or as an ``rz``/``sx`` sequence in the hardware basis.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ...circuit.circuit import Instruction, QuantumCircuit
from ...circuit.dag import DAGCircuit
from ...circuit.gates import Gate, gate as make_gate
from ...exceptions import TranspilerError
from ...synthesis.linalg import ALLCLOSE_RTOL
from ...synthesis.one_qubit import synthesize_zsx, u_params_from_matrix
from ..passmanager import PropertySet, TransformationPass
from .commutation import refresh_commutation_wires

_IDENTITY_TOL = 1e-9


def _is_scalar_identity(matrix: np.ndarray) -> bool:
    """Exact scalar form of ``np.allclose(matrix, eye(2) * matrix[0, 0], atol=_IDENTITY_TOL)``."""
    m00 = complex(matrix[0, 0])
    return (
        abs(complex(matrix[0, 1])) <= _IDENTITY_TOL
        and abs(complex(matrix[1, 0])) <= _IDENTITY_TOL
        and abs(complex(matrix[1, 1]) - m00) <= _IDENTITY_TOL + ALLCLOSE_RTOL * abs(m00)
    )


class Optimize1qGates(TransformationPass):
    """Merge runs of adjacent single-qubit gates and re-synthesise them.

    ``output`` selects the emitted form: ``"u"`` (a single generic rotation, compact and
    convenient before routing) or ``"zsx"`` (the ``{rz, sx, x}`` hardware basis used for the
    final circuits whose CNOT counts and depths the paper reports).

    The pass rebuilds the DAG in one linear sweep: per-wire pending products are flushed
    whenever a multi-qubit gate or directive touches the wire.
    """

    def __init__(self, output: str = "u") -> None:
        super().__init__()
        if output not in ("u", "zsx"):
            raise TranspilerError(f"unknown 1q synthesis output format {output!r}")
        self.output = output

    def run(self, dag: DAGCircuit, property_set: PropertySet) -> DAGCircuit:
        out = dag.copy_empty_like()
        pending: List[Optional[np.ndarray]] = [None] * dag.num_qubits

        def flush(qubit: int) -> None:
            matrix = pending[qubit]
            pending[qubit] = None
            if matrix is None:
                return
            if _is_scalar_identity(matrix):
                return
            for inst in self._emit(matrix, qubit):
                out.add_node(inst.gate, inst.qubits)

        for node in dag.op_nodes():
            if len(node.qubits) == 1 and node.gate.is_unitary and node.name != "barrier":
                q = node.qubits[0]
                matrix = node.gate.matrix()
                pending[q] = matrix if pending[q] is None else matrix @ pending[q]
                continue
            for q in node.qubits:
                flush(q)
            out.add_node(node.gate, node.qubits, node.clbits)
        for q in range(dag.num_qubits):
            flush(q)
        return out

    def _emit(self, matrix: np.ndarray, qubit: int) -> List[Instruction]:
        if self.output == "u":
            theta, phi, lam, _ = u_params_from_matrix(matrix)
            if abs(theta) < _IDENTITY_TOL and abs(phi + lam) < _IDENTITY_TOL:
                return []
            return [Instruction(make_gate("u", theta, phi, lam), (qubit,))]
        ops = synthesize_zsx(matrix)
        return [Instruction(Gate(name, params), (qubit,)) for name, params in ops]


class RemoveIdentities(TransformationPass):
    """Drop explicit identity gates and zero-angle rotations (in place).

    Removal-only, so the cached commutation analysis is patched rather than invalidated.
    """

    preserves = ("commutation_sets", "commutation_index")

    def run(self, dag: DAGCircuit, property_set: PropertySet) -> DAGCircuit:
        dirty_wires = set()
        for node in dag.op_nodes():
            drop = node.name == "id" or (
                node.name in ("rz", "rx", "ry", "p", "u1")
                and abs(node.gate.params[0]) < _IDENTITY_TOL
            )
            if drop:
                dirty_wires.update(node.qubits)
                dag.remove_op_node(node)
        refresh_commutation_wires(dag, property_set, dirty_wires)
        return dag
