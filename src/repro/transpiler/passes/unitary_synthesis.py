"""Two-qubit block re-synthesis (the Qiskit ``ConsolidateBlocks`` + ``UnitarySynthesis``
combination, paper Sec. III and IV-D).

Each collected two-qubit block is multiplied into a 4x4 unitary and re-synthesised with the
KAK-based :class:`~repro.synthesis.two_qubit.TwoQubitSynthesizer`, which emits at most three
CNOTs.  A block is only replaced when the re-synthesised form does not increase the CNOT
count, so the pass never makes the circuit worse; when the block's target CNOT count
already settles that, no template is assembled.

The pass consumes the ``Collect2qBlocks`` analysis from the property set (recomputing it
only when a previous transformation invalidated it) and rewrites blocks in place on the
DAG.  Outcomes are memoised by block *signature* (gate names, exact parameters and local
wire pattern): inside the post-routing fixed-point loop most blocks reach the second
iteration unchanged, and identical blocks across invocations and circuits are served from
the cache instead of being decomposed again.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...circuit.circuit import Instruction, expanded_gate_matrix
from ...circuit.dag import DAGCircuit, DAGNode
from ...obs.counters import COUNTERS
from ...synthesis.two_qubit import SHORTEST_CORE_OPS, TwoQubitSynthesizer, weyl_decompose
from ..passmanager import PropertySet, TransformationPass
from .collect_2q import Collect2qBlocks

#: Equivalent-CNOT weight of two-qubit gates when estimating a block's original cost.
_TWO_QUBIT_WEIGHT = {"cx": 1, "cz": 1, "cy": 1, "cp": 2, "cu1": 2, "crx": 2, "cry": 2,
                     "crz": 2, "rzz": 2, "rxx": 2, "ryy": 2, "iswap": 2, "dcx": 2,
                     "swap": 3, "ch": 2, "unitary": 3}

#: A block's replacement template (a list of (Gate, local qubit tuple) pairs), or ``None``
#: to keep the block as written.
_Template = Optional[List[Tuple[object, Tuple[int, ...]]]]

#: Memoised outcomes keyed by block signature.  The outcome depends on the signature
#: alone: the block's matrix, CNOT weight, CNOT-only form and length all follow from it.
_SYNTH_CACHE: Dict[Tuple, _Template] = {}
_SYNTH_CACHE_LIMIT = 50000
_UNSEEN = object()

# KAK-memo telemetry (module ints, pulled by the registry on snapshot).  ``decided_early``
# counts the misses kept from the target CNOT count alone, without assembling a template.
_SYNTH_HITS = 0
_SYNTH_MISSES = 0
_SYNTH_DECIDED_EARLY = 0

COUNTERS.register_provider(
    "cache.kak_memo",
    lambda: {"hits": _SYNTH_HITS, "misses": _SYNTH_MISSES,
             "decided_early": _SYNTH_DECIDED_EARLY, "size": len(_SYNTH_CACHE)},
)

_SYNTHESIZER = TwoQubitSynthesizer()


def block_matrix(ops: Sequence, pair: Tuple[int, int]) -> np.ndarray:
    """4x4 unitary of ``ops`` (in circuit order, on the wires of ``pair`` -> (0, 1)).

    ``ops`` are instructions or DAG nodes.  The same product, in the same order, as
    ``QuantumCircuit.to_matrix()`` of the ops as a two-qubit circuit.
    """
    q0 = pair[0]
    total = np.eye(4, dtype=complex)
    for op in ops:
        wires = tuple(0 if q == q0 else 1 for q in op.qubits)
        total = expanded_gate_matrix(op.gate, wires, 2) @ total
    return total


def _block_signature(nodes: List[DAGNode], pair: Tuple[int, int]) -> Optional[Tuple]:
    """Exact content key of a block on its local wires, or ``None`` if unkeyable.

    Blocks containing explicit-matrix ``unitary`` gates are not keyed (their content is
    the matrix itself); everything else is fully determined by (name, params, wires).
    """
    mapping = {pair[0]: 0, pair[1]: 1}
    signature = []
    for node in nodes:
        if node.name == "unitary":
            return None
        # The interned cache token carries (name, exact params) precomputed per gate.
        signature.append((node.gate.cache_token, tuple(mapping[q] for q in node.qubits)))
    return tuple(signature)


def _keeps(block_len: int, old_weight: int, cx_only: bool, new_cx: int, new_len: int) -> bool:
    """Keep a block over a synthesis (``new_cx`` CNOTs, ``new_len`` ops) that adds CNOTs, or
    saves none while the block is already in CNOT form and no longer."""
    return new_cx > old_weight or (new_cx == old_weight and cx_only and block_len <= new_len)


class UnitarySynthesis(TransformationPass):
    """Re-synthesise every two-qubit block with at most three CNOTs."""

    @staticmethod
    def _replacement(
        nodes: List[DAGNode], pair: Tuple[int, int], old_weight: int, cx_only: bool
    ) -> _Template:
        """The block's replacement template, or ``None`` to keep it as written.

        A synthesis holds at least the target count ``T`` of CNOTs (for ``T = 2`` the
        3-CNOT template may give 3; the fallback gives 4), and one holding exactly ``T``
        has at least ``SHORTEST_CORE_OPS[T]`` ops.  When even that best case is kept, so
        is every synthesis: a keep needs ``T`` at least the block's CNOT count, and
        ``_keeps`` keeps any synthesis with more.  Then none is assembled.
        """
        global _SYNTH_HITS, _SYNTH_MISSES, _SYNTH_DECIDED_EARLY
        signature = _block_signature(nodes, pair)
        if signature is not None:
            cached = _SYNTH_CACHE.get(signature, _UNSEEN)
            if cached is not _UNSEEN:
                _SYNTH_HITS += 1
                return cached
            _SYNTH_MISSES += 1
        matrix = block_matrix(nodes, pair)
        decomposition = weyl_decompose(matrix)
        target = decomposition.cnot_count()
        template: _Template = None
        if _keeps(len(nodes), old_weight, cx_only, target, SHORTEST_CORE_OPS[target]):
            if signature is not None:
                _SYNTH_DECIDED_EARLY += 1
        else:
            result = _SYNTHESIZER.synthesize(matrix, decomposition)
            synthesized = [(inst.gate, inst.qubits) for inst in result.circuit.data]
            if not _keeps(len(nodes), old_weight, cx_only, result.cnot_count, len(synthesized)):
                template = synthesized
        if signature is not None and len(_SYNTH_CACHE) < _SYNTH_CACHE_LIMIT:
            _SYNTH_CACHE[signature] = template
        return template

    def run(self, dag: DAGCircuit, property_set: PropertySet) -> DAGCircuit:
        if "block_list" not in property_set or "block_pairs" not in property_set:
            Collect2qBlocks().run(dag, property_set)
        blocks: List[List[int]] = property_set["block_list"]
        pairs: List[Tuple[int, int]] = property_set["block_pairs"]

        for positions, pair in zip(blocks, pairs):
            nodes = [dag.node(nid) for nid in positions]
            two_qubit_nodes = [n for n in nodes if len(n.qubits) == 2]
            if len(nodes) < 2 or not two_qubit_nodes:
                continue
            old_weight = sum(
                _TWO_QUBIT_WEIGHT.get(n.name, 3) for n in two_qubit_nodes
            )
            cx_only = all(n.name == "cx" for n in two_qubit_nodes)
            if old_weight <= 1 and cx_only:
                continue
            template = self._replacement(nodes, pair, old_weight, cx_only)
            if template is None:
                continue
            mapped = [
                Instruction(gate, tuple(pair[q] for q in qubits))
                for gate, qubits in template
            ]
            # Anchor the replacement at the block's first two-qubit gate: every leading
            # single-qubit member has an empty wire between itself and this anchor, so moving
            # it to the anchor is safe, whereas anchoring earlier could illegally reorder this
            # block against a neighbouring block that shares one of its wires.
            anchor = two_qubit_nodes[0]
            for node in nodes:
                if node is anchor:
                    continue
                dag.remove_op_node(node)
            dag.substitute_node_with_ops(anchor, mapped)

        # The block bookkeeping refers to the pre-rewrite DAG; the pass manager drops it
        # (``block_*`` is not in ``preserves``) when the DAG changed.  When nothing changed
        # the analysis is still valid and stays cached for the next invocation.
        return dag
