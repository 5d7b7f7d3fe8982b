"""Commutation analysis and commutative gate cancellation (paper Sec. II-C and III).

``CommutationAnalysis`` groups, per wire, maximal runs of mutually-commuting gates into
*commute sets*.  ``CommutativeCancellation`` then cancels pairs of self-inverse gates (most
importantly CNOTs) that sit in the same commute set on every wire they touch, and merges
runs of rotations about the same axis.  This is the optimization that makes some SWAP
decompositions cheaper than others (Fig. 4 and Fig. 7 of the paper).

Both passes are DAG-native.  The analysis results live in the property set keyed by node id
and are *incrementally maintained*: ``CommutativeCancellation`` patches the commute sets as
it removes or substitutes nodes (see :func:`refresh_commutation_wires`) and declares
them in ``preserves``, so the sets are computed at most once per optimization-loop
iteration instead of being rebuilt from scratch on every invocation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ...circuit.circuit import Instruction, QuantumCircuit, expanded_gate_matrix
from ...circuit.dag import DAGCircuit, DAGNode
from ...circuit.gates import Gate, gate as make_gate
from ...obs.counters import COUNTERS
from ...synthesis.linalg import allclose
from ..passmanager import AnalysisPass, PropertySet, TransformationPass

_COMMUTE_CACHE: Dict[Tuple, bool] = {}

# Hit/miss telemetry as plain module ints (a bound-int increment is the cheapest thing
# this hot path can pay); the registry pulls them on snapshot.
_COMMUTE_HITS = 0
_COMMUTE_MISSES = 0

COUNTERS.register_provider(
    "cache.commutation",
    lambda: {"hits": _COMMUTE_HITS, "misses": _COMMUTE_MISSES, "size": len(_COMMUTE_CACHE)},
)

#: Gates that are diagonal in the computational basis (always commute with each other).
_DIAGONAL_GATES = {"z", "s", "sdg", "t", "tdg", "rz", "p", "u1", "cz", "cp", "cu1", "crz", "rzz"}


def _cache_key(inst_a, inst_b, qubit_map: Dict[int, int]) -> Tuple:
    # Keyed on the gates' interned identity tokens (exact name + params, computed once
    # per Gate instance) plus the local wire pattern — no per-lookup param rounding.
    return (
        inst_a.gate.cache_token,
        tuple(qubit_map[q] for q in inst_a.qubits),
        inst_b.gate.cache_token,
        tuple(qubit_map[q] for q in inst_b.qubits),
    )


def gates_commute(inst_a, inst_b) -> bool:
    """True if the two operations commute as operators.

    Accepts any pair of objects exposing ``name``/``qubits``/``gate`` (both
    :class:`~repro.circuit.circuit.Instruction` and :class:`~repro.circuit.dag.DAGNode`
    qualify).  Fast rule-based checks cover the common cases (disjoint supports, diagonal
    gates, CNOTs sharing a control or a target); everything else falls back to an explicit
    matrix check on the joint support (at most four qubits here), memoised on the gates'
    identity tokens (explicit-matrix ``unitary`` gates have no token and are always
    checked directly).
    """
    if not inst_a.gate.is_unitary or not inst_b.gate.is_unitary:
        return False
    if inst_a.name == "barrier" or inst_b.name == "barrier":
        return False
    qubits_b = inst_b.qubits
    if not any(q in qubits_b for q in inst_a.qubits):
        return True
    if inst_a.name in _DIAGONAL_GATES and inst_b.name in _DIAGONAL_GATES:
        return True
    if inst_a.name == "cx" and inst_b.name == "cx":
        control_a, target_a = inst_a.qubits
        control_b, target_b = inst_b.qubits
        if control_a == control_b and target_a != target_b:
            return True
        if target_a == target_b and control_a != control_b:
            return True
        if (control_a, target_a) == (control_b, target_b):
            return True
        return False

    qubits = sorted(set(inst_a.qubits) | set(inst_b.qubits))
    index = {q: i for i, q in enumerate(qubits)}
    cacheable = inst_a.name != "unitary" and inst_b.name != "unitary"
    global _COMMUTE_HITS, _COMMUTE_MISSES
    if cacheable:
        key = _cache_key(inst_a, inst_b, index)
        cached = _COMMUTE_CACHE.get(key)
        if cached is not None:
            _COMMUTE_HITS += 1
            return cached
        _COMMUTE_MISSES += 1
    n = len(qubits)
    mat_a = expanded_gate_matrix(inst_a.gate, [index[q] for q in inst_a.qubits], n)
    mat_b = expanded_gate_matrix(inst_b.gate, [index[q] for q in inst_b.qubits], n)
    result = allclose(mat_a @ mat_b, mat_b @ mat_a, 1e-9)
    if cacheable and len(_COMMUTE_CACHE) < 100000:
        _COMMUTE_CACHE[key] = result
    return result


def refresh_commutation_wires(
    dag: DAGCircuit, property_set: PropertySet, wires: Iterable[int]
) -> None:
    """(Re)build the cached commute sets of the given qubit wires.

    The commute-set partition is computed independently per wire, so re-scanning only the
    wires a transformation touched yields *exactly* the result a from-scratch rerun would —
    this is what lets in-place passes declare ``preserves = ("commutation_sets", ...)``
    without ever serving a stale or overly-fine partition.  :class:`CommutationAnalysis`
    builds every wire with it.  No-op when no analysis is cached.
    """
    sets = property_set.get("commutation_sets")
    index = property_set.get("commutation_index")
    if sets is None or index is None:
        return
    for qubit in set(wires):
        for group in sets[qubit]:
            for nid in group:
                index.pop((qubit, nid), None)
        groups: List[List[int]] = []
        for node in dag.wire_nodes(qubit):
            if not node.gate.is_unitary or node.name == "barrier":
                # Directives split every commute set on their wires.
                groups.append([])
                continue
            if not groups:
                groups.append([])
            current = groups[-1]
            # Bounded search (paper Sec. IV-E): very large commute sets are split rather
            # than scanned, which is conservative (never merges gates that might not
            # commute) and keeps the analysis O(1) per gate.
            if len(current) >= CommutationAnalysis.MAX_SET_SIZE:
                groups.append([node.node_id])
                index[(qubit, node.node_id)] = len(groups) - 1
                continue
            commutes_with_all = all(
                gates_commute(node, dag.node(other_id)) for other_id in current
            )
            if current and not commutes_with_all:
                groups.append([node.node_id])
            else:
                current.append(node.node_id)
            index[(qubit, node.node_id)] = len(groups) - 1
        sets[qubit] = groups


class CommutationAnalysis(AnalysisPass):
    """Group gates into per-wire commute sets.

    Results are stored in ``property_set["commutation_sets"]`` as a mapping
    ``qubit -> list of commute sets``, each commute set being a list of DAG node ids in
    wire order.  ``property_set["commutation_index"]`` maps ``(qubit, node_id) -> set
    index`` for O(1) lookup.  Both structures survive DAG rewrites performed by passes
    that patch them (``CommutativeCancellation``, ``RemoveIdentities``); any other
    transformation invalidates them through the pass manager.
    """

    #: Bound on the number of gates examined per commute set (paper Sec. IV-E).
    MAX_SET_SIZE = 20

    def run(self, dag: DAGCircuit, property_set: PropertySet) -> None:
        property_set["commutation_sets"] = {q: [] for q in range(dag.num_qubits)}
        property_set["commutation_index"] = {}
        refresh_commutation_wires(dag, property_set, range(dag.num_qubits))


class CommutativeCancellation(TransformationPass):
    """Cancel self-inverse gates and merge rotations using commutation relations.

    Consumes the cached ``CommutationAnalysis`` results (computing them only when absent)
    and rewrites the DAG in place, patching the commute sets as nodes disappear so the
    analysis stays valid for the next iteration of the optimization loop.
    """

    preserves = ("commutation_sets", "commutation_index")

    _SELF_INVERSE_1Q = {"x", "y", "z", "h"}
    _ROTATION_AXES = {"rz": "z", "p": "z", "u1": "z", "z": "z", "s": "z", "sdg": "z",
                      "t": "z", "tdg": "z", "rx": "x", "x": "x", "sx": "x", "sxdg": "x"}
    _AXIS_ANGLES = {"z": np.pi, "s": np.pi / 2, "sdg": -np.pi / 2, "t": np.pi / 4,
                    "tdg": -np.pi / 4, "x": np.pi, "sx": np.pi / 2, "sxdg": -np.pi / 2}

    def run(self, dag: DAGCircuit, property_set: PropertySet) -> DAGCircuit:
        if "commutation_sets" not in property_set or "commutation_index" not in property_set:
            CommutationAnalysis().run(dag, property_set)
        index: Dict[Tuple[int, int], int] = property_set["commutation_index"]
        dirty_wires: Set[int] = set()

        def remove(node: DAGNode) -> None:
            dirty_wires.update(node.qubits)
            dag.remove_op_node(node)

        # --- Two-qubit self-inverse cancellation (cx, cz, swap) --------------------
        for name in ("cx", "cz", "swap"):
            groups: Dict[Tuple, List[DAGNode]] = {}
            for node in dag.op_nodes(name):
                q0, q1 = node.qubits
                key_qubits = node.qubits if name == "cx" else tuple(sorted(node.qubits))
                key = (
                    key_qubits,
                    index.get((q0, node.node_id)),
                    index.get((q1, node.node_id)),
                )
                groups.setdefault(key, []).append(node)
            for members in groups.values():
                # Cancel pairs: an even count disappears entirely, an odd count keeps one.
                for first, second in zip(members[0::2], members[1::2]):
                    remove(first)
                    remove(second)

        # --- Single-qubit cancellation and rotation merging -------------------------
        per_qubit_groups: Dict[int, Dict[int, List[DAGNode]]] = {
            q: {} for q in range(dag.num_qubits)
        }
        for node in dag.op_nodes():
            if len(node.qubits) != 1 or not node.gate.is_unitary:
                continue
            qubit = node.qubits[0]
            group_id = index.get((qubit, node.node_id))
            if group_id is None:
                continue
            per_qubit_groups[qubit].setdefault(group_id, []).append(node)
        for qubit in range(dag.num_qubits):
            for members in per_qubit_groups[qubit].values():
                self._simplify_single_qubit_group(dag, members, remove, qubit, dirty_wires)
        # Re-scan only the wires the cancellation touched: after this the preserved
        # analysis is exactly what a from-scratch rerun on the rewritten DAG would give.
        refresh_commutation_wires(dag, property_set, dirty_wires)
        return dag

    def _simplify_single_qubit_group(
        self,
        dag: DAGCircuit,
        members: List[DAGNode],
        remove,
        qubit: int,
        dirty_wires: Set[int],
    ) -> None:
        removed: Set[int] = set()

        # Cancel identical self-inverse gates pairwise.
        for name in self._SELF_INVERSE_1Q:
            matching = [n for n in members if n.name == name]
            for first, second in zip(matching[0::2], matching[1::2]):
                removed.add(first.node_id)
                removed.add(second.node_id)
                remove(first)
                remove(second)

        # Merge rotations about the same axis into a single rotation.
        for axis, rot_name in (("z", "rz"), ("x", "rx")):
            matching = [
                n
                for n in members
                if n.node_id not in removed
                and self._ROTATION_AXES.get(n.name) == axis
                and n.name not in self._SELF_INVERSE_1Q
            ]
            if len(matching) < 2:
                continue
            total = 0.0
            for n in matching:
                if n.gate.params:
                    total += n.gate.params[0]
                else:
                    total += self._AXIS_ANGLES[n.name]
            total = float(np.mod(total + np.pi, 2 * np.pi) - np.pi)
            keep: Optional[DAGNode] = matching[0] if abs(total) > 1e-10 else None
            for n in matching:
                removed.add(n.node_id)
                if n is keep:
                    continue
                remove(n)
            if keep is not None:
                # The merged rotation keeps the first node's slot.
                dag.substitute_node(keep, make_gate(rot_name, total))
                dirty_wires.add(qubit)
