"""Single-qubit gate movement through SWAP gates (part of NASSC's optimization-aware SWAP
decomposition, paper Sec. IV-E).

A single-qubit gate ``U`` on qubit ``a`` immediately followed by ``swap(a, b)`` is equivalent
to ``swap(a, b)`` followed by ``U`` on qubit ``b``.  Moving such gates after the SWAP removes
them from between a preceding CNOT and the SWAP's first CNOT, which is what lets the
commutative-cancellation pass fire (Fig. 7 of the paper).

Gates moved through one SWAP land on the swapped wire and may be moved again by a later SWAP
(qubits travel along SWAP chains during routing), so the pass tracks wire adjacency on the
rewritten circuit, not on the original one.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..circuit.circuit import Instruction
from ..circuit.dag import DAGCircuit
from ..transpiler.passmanager import PropertySet, TransformationPass


class CommuteSingleQubitsThroughSwap(TransformationPass):
    """Move single-qubit gates that immediately precede a SWAP to after it (on the swapped wire)."""

    def run(self, dag: DAGCircuit, property_set: PropertySet) -> DAGCircuit:
        # Entries are instructions or None (a gate that was relocated); indices are stable.
        output: List[Optional[Instruction]] = []
        # For every wire, indices into ``output`` of the instructions touching it, in order.
        wire: Dict[int, List[int]] = {q: [] for q in range(dag.num_qubits)}

        def append(inst: Instruction) -> int:
            index = len(output)
            output.append(inst)
            for q in inst.qubits:
                wire[q].append(index)
            return index

        for node in dag.op_nodes():
            inst = Instruction(node.gate, node.qubits, node.clbits)
            if inst.name != "swap":
                append(inst)
                continue
            a, b = inst.qubits
            relocated: List[Instruction] = []
            for source, destination in ((a, b), (b, a)):
                collected: List[Instruction] = []
                history = wire[source]
                while history:
                    prev_index = history[-1]
                    prev = output[prev_index]
                    if (
                        prev is None
                        or len(prev.qubits) != 1
                        or not prev.gate.is_unitary
                        or prev.name == "barrier"
                    ):
                        break
                    collected.append(Instruction(prev.gate, (destination,)))
                    output[prev_index] = None
                    history.pop()
                # The walk collected gates from latest to earliest; restore circuit order.
                relocated.extend(reversed(collected))
            append(inst)
            for moved in relocated:
                append(moved)

        result = dag.copy_empty_like()
        for inst in output:
            if inst is None:
                continue
            result.add_node(inst.gate, inst.qubits, inst.clbits)
        return result
