"""Two-qubit block collection (the Qiskit ``Collect2qBlocks`` pass, paper Sec. III).

A *two-qubit block* is a maximal run of gates that act only on a fixed pair of qubits
(including the single-qubit gates interleaved on those two wires).  Blocks are what the
``UnitarySynthesis`` pass re-synthesises into at most three CNOTs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...circuit.dag import DAGCircuit
from ..passmanager import AnalysisPass, PropertySet


@dataclass
class TwoQubitBlock:
    """A run of instructions confined to one pair of qubits."""

    qubits: Tuple[int, int]
    positions: List[int] = field(default_factory=list)


class Collect2qBlocks(AnalysisPass):
    """Identify two-qubit blocks and record them in the property set.

    ``property_set["block_list"]`` holds a list of blocks, each a list of DAG node ids in
    linearized circuit order (node ids are *not* numerically sorted — after in-place
    substitutions they need not be monotone in circuit order).  ``property_set["block_id"]``
    maps a node id to its block index (only for nodes that are inside a block), and
    ``property_set["block_pairs"]`` holds each block's qubit pair.
    """

    def run(self, dag: DAGCircuit, property_set: PropertySet) -> None:
        blocks: List[List[int]] = []
        block_pairs: List[Tuple[int, int]] = []
        current_block: Dict[int, Optional[int]] = {q: None for q in range(dag.num_qubits)}
        # Floating 1q gates per wire as (scan position, node id): scan position lets two
        # wires' pending lists merge back into circuit order when a block absorbs them.
        pending_1q: Dict[int, List[Tuple[int, int]]] = {q: [] for q in range(dag.num_qubits)}

        def close(qubit: int) -> None:
            current_block[qubit] = None
            pending_1q[qubit] = []

        for scan_pos, node in enumerate(dag.op_nodes()):
            qubits = node.qubits
            if (not node.gate.is_unitary) or node.name == "barrier" or len(qubits) > 2:
                for q in qubits:
                    close(q)
                continue
            if len(qubits) == 1:
                q = qubits[0]
                block_idx = current_block[q]
                if block_idx is not None:
                    blocks[block_idx].append(node.node_id)
                else:
                    pending_1q[q].append((scan_pos, node.node_id))
                continue
            a, b = qubits
            idx_a, idx_b = current_block[a], current_block[b]
            if idx_a is not None and idx_a == idx_b:
                blocks[idx_a].append(node.node_id)
                continue
            # Start a new block on (a, b); absorb any floating 1q gates on these wires.
            if idx_a is not None:
                current_block[a] = None
            if idx_b is not None:
                current_block[b] = None
            new_positions = [nid for _, nid in sorted(pending_1q[a] + pending_1q[b])]
            pending_1q[a] = []
            pending_1q[b] = []
            new_positions.append(node.node_id)
            blocks.append(new_positions)
            block_pairs.append((a, b))
            current_block[a] = len(blocks) - 1
            current_block[b] = len(blocks) - 1

        block_id: Dict[int, int] = {}
        for idx, positions in enumerate(blocks):
            for pos in positions:
                block_id[pos] = idx

        property_set["block_list"] = blocks
        property_set["block_pairs"] = block_pairs
        property_set["block_id"] = block_id
