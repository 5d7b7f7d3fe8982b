"""SWAP gate lowering.

A SWAP on qubits ``(a, b)`` is implemented by three CNOTs.  There are two valid
decompositions, differing in which qubit is the control of the first (and last) CNOT::

    swap(a, b) = cx(a, b) cx(b, a) cx(a, b)   (orientation "a")
               = cx(b, a) cx(a, b) cx(b, a)   (orientation "b")

The standard compiler always picks a fixed orientation (first form).  NASSC's
*optimization-aware SWAP decomposition* (paper Sec. IV-E) labels each inserted SWAP with the
orientation that lets the subsequent commutative-cancellation pass cancel a CNOT.  The label
is carried in ``Gate.label`` as ``"ctrl:<physical qubit>"``.
"""

from __future__ import annotations

from typing import List

from ...circuit.circuit import Instruction, QuantumCircuit
from ...circuit.dag import DAGCircuit
from ...circuit.gates import gate as make_gate
from ..passmanager import PropertySet, TransformationPass


def swap_orientation(label: str | None, qubits: tuple) -> int:
    """Physical qubit that should act as the control of the first CNOT."""
    a, b = qubits
    if label and label.startswith("ctrl:"):
        try:
            requested = int(label.split(":", 1)[1])
        except ValueError:
            return a
        if requested in (a, b):
            return requested
    return a


class SwapLowering(TransformationPass):
    """Replace every SWAP with three CNOTs, honouring optimization-aware orientation labels."""

    def __init__(self, use_labels: bool = True) -> None:
        super().__init__()
        self.use_labels = use_labels

    #: Above this (#swaps x #gates) product a single rebuild sweep beats per-node splices.
    _REBUILD_THRESHOLD = 1 << 18

    def _lowering(self, node) -> List[Instruction]:
        a, b = node.qubits
        control = swap_orientation(node.gate.label if self.use_labels else None, (a, b))
        target = b if control == a else a
        return [
            Instruction(make_gate("cx"), (control, target)),
            Instruction(make_gate("cx"), (target, control)),
            Instruction(make_gate("cx"), (control, target)),
        ]

    def run(self, dag: DAGCircuit, property_set: PropertySet) -> DAGCircuit:
        swaps = dag.op_nodes("swap")
        if not swaps:
            return dag
        if len(swaps) * len(dag) > self._REBUILD_THRESHOLD:
            # Each in-place splice costs a linear scan of the linearization; on circuits
            # with many SWAPs one O(n) rebuild is cheaper and emits the identical order.
            out = dag.copy_empty_like()
            for node in dag.op_nodes():
                if node.name == "swap":
                    for inst in self._lowering(node):
                        out.add_node(inst.gate, inst.qubits)
                else:
                    out.add_node(node.gate, node.qubits, node.clbits)
            return out
        for node in swaps:
            dag.substitute_node_with_ops(node, self._lowering(node))
        return dag


def lower_swap(a: int, b: int, control_first: int | None = None) -> List[Instruction]:
    """Instruction list for one SWAP lowering (used by tests and the examples)."""
    control = a if control_first in (None, a) else b
    target = b if control == a else a
    return [
        Instruction(make_gate("cx"), (control, target)),
        Instruction(make_gate("cx"), (target, control)),
        Instruction(make_gate("cx"), (control, target)),
    ]
