"""Directed-acyclic-graph (DAG) view of a quantum circuit.

The routing algorithms (SABRE and NASSC) and the commutation analysis pass both operate on
the DAG representation described in Sec. IV-B of the paper: each node is a gate, and an edge
``i -> j`` means gate ``i`` must execute before gate ``j`` because they share a wire.

Since the pass-framework refactor the DAG is also the canonical IR of the whole transpiler:
:class:`~repro.transpiler.passmanager.PassManager` converts a circuit to a DAG exactly once
on entry and back exactly once on exit, and every pass consumes and produces ``DAGCircuit``
objects.  To support in-place rewriting the DAG offers a mutation API
(:meth:`DAGCircuit.substitute_node`, :meth:`DAGCircuit.substitute_node_with_ops`,
:meth:`DAGCircuit.remove_op_node`, :meth:`DAGCircuit.apply_operation_back`) that maintains
two invariants:

* ``_insertion_order`` is always a valid topological linearization (new nodes are spliced
  into the slot of the node they replace, whose wires they must be confined to), so
  :meth:`to_circuit` is O(n) with no Kahn traversal; and
* every mutation bumps :attr:`version`, which lets the pass manager detect "this pass
  changed nothing" without diffing and lets :meth:`fingerprint` memoise its hash — the key
  the fixed-point pass scheduler converges on.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..exceptions import CircuitError
from .circuit import Instruction, QuantumCircuit
from .gates import Gate


@dataclass
class DAGNode:
    """A single operation node in the DAG."""

    node_id: int
    gate: Gate
    qubits: Tuple[int, ...]
    clbits: Tuple[int, ...] = ()

    @property
    def name(self) -> str:
        return self.gate.name

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def is_two_qubit(self) -> bool:
        return len(self.qubits) == 2 and self.gate.is_unitary

    def to_instruction(self) -> Instruction:
        return Instruction(self.gate, self.qubits, self.clbits)

    def __hash__(self) -> int:
        return self.node_id

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DAGNode) and other.node_id == self.node_id

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DAGNode({self.node_id}, {self.gate.name}, {self.qubits})"


class FrontierNode(DAGNode):
    """A :class:`StreamingDAG` node.

    Its gate never changes, so :meth:`is_two_qubit` is computed once, at admission, into
    :attr:`two_qubit`: the routers' front filter and executability check and
    :meth:`StreamingDAG.lookahead` read the flag on every step.
    """

    __slots__ = ("two_qubit",)

    def __init__(
        self, node_id: int, gate: Gate, qubits: Tuple[int, ...], clbits: Tuple[int, ...]
    ) -> None:
        super().__init__(node_id, gate, qubits, clbits)
        self.two_qubit = len(qubits) == 2 and gate.is_unitary

    def is_two_qubit(self) -> bool:
        return self.two_qubit


class DAGCircuit:
    """Dependency DAG over the instructions of a :class:`QuantumCircuit`.

    The DAG keeps wire-level ordering: for every qubit (and classical bit) the sequence of
    nodes touching that wire is recorded, and edges connect consecutive nodes on a wire.
    """

    def __init__(self, num_qubits: int, num_clbits: int = 0, name: str = "dag") -> None:
        self.num_qubits = num_qubits
        self.num_clbits = num_clbits
        self.name = name
        self.metadata: Dict[str, object] = {}
        self.nodes: Dict[int, DAGNode] = {}
        self._successors: Dict[int, Set[int]] = {}
        self._predecessors: Dict[int, Set[int]] = {}
        self._wire_order: Dict[Tuple[str, int], List[int]] = {
            ("q", q): [] for q in range(num_qubits)
        }
        for c in range(num_clbits):
            self._wire_order[("c", c)] = []
        self._next_id = 0
        self._insertion_order: List[int] = []
        self._version = 0
        self._fingerprint: Optional[int] = None
        self._fingerprint_version = -1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_circuit(cls, circuit: QuantumCircuit) -> "DAGCircuit":
        dag = cls(circuit.num_qubits, circuit.num_clbits, circuit.name)
        dag.metadata = dict(circuit.metadata)
        for inst in circuit.data:
            dag.add_node(inst.gate, inst.qubits, inst.clbits)
        return dag

    def copy_empty_like(self, name: Optional[str] = None) -> "DAGCircuit":
        """Empty DAG with the same registers, name and metadata (used by rebuild passes)."""
        out = DAGCircuit(self.num_qubits, self.num_clbits, name or self.name)
        out.metadata = dict(self.metadata)
        return out

    def add_node(
        self, gate: Gate, qubits: Sequence[int], clbits: Sequence[int] = ()
    ) -> DAGNode:
        """Append an operation to the end of the DAG (after all current ops on its wires)."""
        qubits = tuple(int(q) for q in qubits)
        clbits = tuple(int(c) for c in clbits)
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise CircuitError(f"qubit {q} out of range")
        if gate.is_unitary and gate.name != "barrier" and len(qubits) != gate.num_qubits:
            raise CircuitError(
                f"gate '{gate.name}' acts on {gate.num_qubits} qubits, got {len(qubits)}"
            )
        node = DAGNode(self._next_id, gate, qubits, clbits)
        self._next_id += 1
        self.nodes[node.node_id] = node
        self._successors[node.node_id] = set()
        self._predecessors[node.node_id] = set()
        self._insertion_order.append(node.node_id)
        for wire in self._wires(node):
            order = self._wire_order[wire]
            if order:
                prev = order[-1]
                self._successors[prev].add(node.node_id)
                self._predecessors[node.node_id].add(prev)
            order.append(node.node_id)
        self._version += 1
        return node

    #: Qiskit-style alias for :meth:`add_node`.
    apply_operation_back = add_node

    @staticmethod
    def _node_wires(node: DAGNode) -> List[Tuple[str, int]]:
        return [("q", q) for q in node.qubits] + [("c", c) for c in node.clbits]

    def _wires(self, node: DAGNode) -> List[Tuple[str, int]]:
        return self._node_wires(node)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def version(self) -> int:
        """Monotone mutation counter; unchanged version means an unchanged DAG."""
        return self._version

    def node(self, node_id: int) -> DAGNode:
        return self.nodes[node_id]

    def op_nodes(self, name: Optional[str] = None) -> List[DAGNode]:
        """All nodes in linearized (insertion) order, optionally filtered by gate name."""
        if len(self._insertion_order) != len(self.nodes):
            # Compact out lazily-deleted ids so repeated traversals stay O(n).
            self._insertion_order = [i for i in self._insertion_order if i in self.nodes]
        nodes = [self.nodes[i] for i in self._insertion_order]
        if name is None:
            return nodes
        return [n for n in nodes if n.name == name]

    def two_qubit_nodes(self) -> List[DAGNode]:
        return [n for n in self.op_nodes() if n.is_two_qubit()]

    def successors(self, node: DAGNode) -> List[DAGNode]:
        return [self.nodes[i] for i in sorted(self._successors[node.node_id]) if i in self.nodes]

    def predecessors(self, node: DAGNode) -> List[DAGNode]:
        return [self.nodes[i] for i in sorted(self._predecessors[node.node_id]) if i in self.nodes]

    def front_layer(self) -> List[DAGNode]:
        """Nodes with no unexecuted predecessors (the paper's "executable gates")."""
        return [n for n in self.op_nodes() if not self._predecessors[n.node_id]]

    def wire_nodes(self, qubit: int) -> List[DAGNode]:
        """Nodes on a qubit wire, in execution order."""
        return [self.nodes[i] for i in self._wire_order[("q", qubit)] if i in self.nodes]

    def topological_nodes(self) -> Iterator[DAGNode]:
        """Kahn topological order, stable with respect to insertion order."""
        indegree = {nid: len(preds) for nid, preds in self._predecessors.items() if nid in self.nodes}
        ready = [nid for nid in self._insertion_order if nid in self.nodes and indegree[nid] == 0]
        ready_set = set(ready)
        emitted = 0
        idx = 0
        ready = list(ready)
        while idx < len(ready):
            nid = ready[idx]
            idx += 1
            emitted += 1
            yield self.nodes[nid]
            for succ in sorted(self._successors[nid]):
                if succ not in indegree:
                    continue
                indegree[succ] -= 1
                if indegree[succ] == 0 and succ not in ready_set:
                    ready.append(succ)
                    ready_set.add(succ)
        if emitted != len(self.nodes):
            raise CircuitError("cycle detected in DAG")

    def descendants(self, node: DAGNode) -> Set[int]:
        """All node ids reachable from ``node`` (excluding itself)."""
        seen: Set[int] = set()
        stack = list(self._successors[node.node_id])
        while stack:
            nid = stack.pop()
            if nid in seen or nid not in self.nodes:
                continue
            seen.add(nid)
            stack.extend(self._successors[nid])
        return seen

    def fingerprint(self) -> int:
        """Hash of the linearized circuit content, memoised by :attr:`version`.

        Two DAGs with equal fingerprints hold the same gate sequence (names, parameters,
        labels, wires) in the same linear order.  The fixed-point flow controller keys its
        convergence check on this value, so an unchanged optimization-loop iteration is
        detected in O(1) after the first (cached) computation.
        """
        if self._fingerprint is None or self._fingerprint_version != self._version:
            content = tuple(
                (
                    n.gate.name,
                    n.gate.params,
                    n.gate.label,
                    n.qubits,
                    n.clbits,
                    # Explicit-matrix gates carry their content in the matrix, not params.
                    n.gate._matrix.tobytes() if n.gate.name == "unitary" else None,
                )
                for n in self.op_nodes()
            )
            self._fingerprint = hash((self.num_qubits, self.num_clbits, content))
            self._fingerprint_version = self._version
        return self._fingerprint

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def remove_node(self, node: DAGNode) -> None:
        """Remove an operation, reconnecting its predecessors to its successors per wire."""
        nid = node.node_id
        if nid not in self.nodes:
            raise CircuitError(f"node {nid} not in DAG")
        for wire in self._wires(node):
            order = self._wire_order[wire]
            pos = order.index(nid)
            prev_id = order[pos - 1] if pos > 0 else None
            next_id = order[pos + 1] if pos + 1 < len(order) else None
            order.pop(pos)
            if prev_id is not None:
                self._successors[prev_id].discard(nid)
            if next_id is not None:
                self._predecessors[next_id].discard(nid)
            if prev_id is not None and next_id is not None:
                self._successors[prev_id].add(next_id)
                self._predecessors[next_id].add(prev_id)
        # Drop any remaining bookkeeping for the removed node.
        for succ in self._successors.pop(nid, set()):
            self._predecessors.get(succ, set()).discard(nid)
        for pred in self._predecessors.pop(nid, set()):
            self._successors.get(pred, set()).discard(nid)
        del self.nodes[nid]
        self._version += 1

    #: Qiskit-style alias for :meth:`remove_node`.
    remove_op_node = remove_node

    def substitute_node(self, node: DAGNode, gate: Gate) -> DAGNode:
        """Replace a node's gate in place (same wires, same position, same node id)."""
        if node.node_id not in self.nodes:
            raise CircuitError(f"node {node.node_id} not in DAG")
        if gate.is_unitary and gate.name != "barrier" and gate.num_qubits != len(node.qubits):
            raise CircuitError(
                f"cannot substitute '{gate.name}' ({gate.num_qubits} qubits) for a node on "
                f"{len(node.qubits)} qubits"
            )
        node.gate = gate
        self._version += 1
        return node

    def substitute_node_with_ops(
        self, node: DAGNode, ops: Sequence[Instruction]
    ) -> List[DAGNode]:
        """Replace one node by a sequence of operations confined to the node's wires.

        The replacement occupies exactly the removed node's slot in the linearization and in
        every per-wire order, so the invariant that ``_insertion_order`` is a topological
        order is preserved.  Each op must act only on wires the removed node acts on.
        """
        nid = node.node_id
        if nid not in self.nodes:
            raise CircuitError(f"node {nid} not in DAG")
        node_qubits = set(node.qubits)
        node_clbits = set(node.clbits)
        for inst in ops:
            if not set(inst.qubits) <= node_qubits or not set(inst.clbits) <= node_clbits:
                raise CircuitError(
                    f"replacement op '{inst.name}' on {inst.qubits} leaves the wires of the "
                    f"substituted node {node.qubits}"
                )

        new_nodes: List[DAGNode] = []
        for inst in ops:
            fresh = DAGNode(self._next_id, inst.gate, inst.qubits, inst.clbits)
            self._next_id += 1
            self.nodes[fresh.node_id] = fresh
            self._successors[fresh.node_id] = set()
            self._predecessors[fresh.node_id] = set()
            new_nodes.append(fresh)

        order_idx = self._insertion_order.index(nid)
        self._insertion_order[order_idx : order_idx + 1] = [n.node_id for n in new_nodes]

        for wire in self._wires(node):
            order = self._wire_order[wire]
            pos = order.index(nid)
            sub = [n.node_id for n in new_nodes if wire in self._wires(n)]
            prev_id = order[pos - 1] if pos > 0 else None
            next_id = order[pos + 1] if pos + 1 < len(order) else None
            order[pos : pos + 1] = sub
            chain = ([prev_id] if prev_id is not None else []) + sub + (
                [next_id] if next_id is not None else []
            )
            for a, b in zip(chain, chain[1:]):
                self._successors[a].add(b)
                self._predecessors[b].add(a)

        # Disconnect and drop the replaced node.
        for succ in self._successors.pop(nid, set()):
            self._predecessors.get(succ, set()).discard(nid)
        for pred in self._predecessors.pop(nid, set()):
            self._successors.get(pred, set()).discard(nid)
        del self.nodes[nid]
        self._version += 1
        return new_nodes

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------

    def to_circuit(self) -> QuantumCircuit:
        """Linearize back to a circuit.

        Emission follows ``_insertion_order``, which the mutation API keeps topologically
        valid, so conversion is a single O(n) sweep and — crucially for reproducibility —
        deterministic: the emitted instruction order equals the order in which operations
        were appended/substituted, exactly matching the list-of-instructions semantics the
        passes had before the DAG became the canonical IR.
        """
        circuit = QuantumCircuit(self.num_qubits, self.num_clbits, self.name)
        circuit.metadata = dict(self.metadata)
        data = circuit.data
        for node in self.op_nodes():
            if node.name == "barrier":
                circuit.barrier(*node.qubits)
            else:
                # Every node was validated when it entered the DAG; skip re-validation.
                data.append(Instruction.trusted(node.gate, node.qubits, node.clbits))
        return circuit

    def count_ops(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for node in self.nodes.values():
            counts[node.name] = counts.get(node.name, 0) + 1
        return counts

    def count_gate(self, name: str) -> int:
        return sum(1 for node in self.nodes.values() if node.name == name)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DAGCircuit(qubits={self.num_qubits}, nodes={len(self.nodes)})"


class StreamingDAG:
    """Dependency frontier the routers walk, over an instruction *stream*.

    The router asks "which gates are executable now?" (:attr:`front`), "resolve this
    gate" (:meth:`resolve`) and "which two-qubit gates come next?" (:meth:`lookahead`).
    At most ``window_gates`` unresolved operations are admitted from the source iterator
    at a time, and :meth:`resolve` deletes the retired node's node/edge/wire bookkeeping
    before admitting replacements, so peak memory is O(window + wires), not O(gates).
    In-memory routing is the special case of a window that admits the whole circuit up
    front (:func:`repro.transpiler.passes.sabre.whole_frontier`).

    Dependency edges are the same wire edges :meth:`DAGCircuit.add_node` builds: each
    admitted operation depends on the *live* tail of every wire it touches (tails whose
    node has already been resolved impose no constraint).  Predecessors are deduplicated
    exactly like ``DAGCircuit``'s predecessor *sets*, so a two-qubit gate sharing both
    wires with one predecessor counts it once.  Node ids count admissions, so successor
    lists are naturally sorted and unique; fed a DAG's ``op_nodes()`` (insertion order),
    the walk visits successors in the DAG's dependency order.

    :meth:`lookahead` admits extra gates on demand (up to ``lookahead_spill`` times the
    window) when the BFS for the extended layer would otherwise run out of admitted
    successors before collecting ``size`` gates — without this, a narrow window would
    starve the router's lookahead and silently change routing decisions.  The spill cap
    keeps memory bounded even for streams almost devoid of two-qubit gates.

    :meth:`resolve` keeps retirement order-faithful the same way: a node is not retired
    while it is still the live tail of one of its wires (its wire successor would later
    be admitted with no predecessors and join the front out of order), pulling the
    source as needed within the same spill allowance.

    A bounded window can diverge from the whole-circuit walk only when a cap binds: a
    wire that idles for more than ``max_live_gates`` operations (spill cap reached while
    its successor is still unread), or an operation with no predecessors that first
    appears beyond the initial window fill.  Layered circuits where every qubit stays
    active within the window — the paper's benchmark class — never hit either case.
    """

    def __init__(
        self,
        instructions: Iterable[Instruction],
        num_qubits: int,
        num_clbits: int = 0,
        *,
        window_gates: int = 4096,
        lookahead_spill: int = 4,
        name: str = "stream",
    ) -> None:
        if window_gates < 1:
            raise CircuitError(f"window_gates must be >= 1, got {window_gates}")
        if lookahead_spill < 1:
            raise CircuitError(f"lookahead_spill must be >= 1, got {lookahead_spill}")
        self.num_qubits = num_qubits
        self.num_clbits = num_clbits
        self.name = name
        self.window_gates = window_gates
        self.max_live_gates = window_gates * lookahead_spill
        self._source = iter(instructions)
        self._source_done = False
        self.nodes: Dict[int, DAGNode] = {}
        self._successors: Dict[int, List[int]] = {}
        self._remaining_pred: Dict[int, int] = {}
        #: Live tail node id per wire; qubit ``q`` is keyed ``q``, clbit ``c`` ``-1 - c``
        #: (integer keys keep admission free of per-wire tuple allocation).
        self._wire_tail: Dict[int, int] = {}
        self._front: List[FrontierNode] = []
        self._next_id = 0
        self._version = 0
        self.admitted = 0
        self.retired = 0
        self._fill()

    @staticmethod
    def _wire_keys(node: DAGNode) -> Sequence[int]:
        """Keys of the node's wires in ``_wire_tail``: qubits first, then clbits."""
        if not node.clbits:
            return node.qubits
        return list(node.qubits) + [-1 - c for c in node.clbits]

    # -- admission ---------------------------------------------------------

    def _fill(self) -> None:
        """Top the live window back up to ``window_gates`` from the source."""
        self._fill_to(self.window_gates)

    def _fill_to(self, target_live: int) -> None:
        nodes = self.nodes
        source = self._source
        admit = self._admit
        while not self._source_done and len(nodes) < target_live:
            inst = next(source, None)
            if inst is None:
                self._source_done = True
                return
            admit(inst)

    def _admit(self, inst: Instruction) -> None:
        qubits = inst.qubits
        num_qubits = self.num_qubits
        for q in qubits:
            if not 0 <= q < num_qubits:
                raise CircuitError(f"qubit {q} out of range")
        nid = self._next_id
        self._next_id = nid + 1
        node = FrontierNode(nid, inst.gate, qubits, inst.clbits)
        nodes = self.nodes
        tails = self._wire_tail
        preds: List[int] = []
        for wire in self._wire_keys(node):
            tail = tails.get(wire)
            # A stale tail (already resolved and deleted) imposes no constraint; live
            # node ids are unique so a dead id can never alias a live node.
            if tail is not None and tail in nodes and tail not in preds:
                preds.append(tail)
            tails[wire] = nid
        nodes[nid] = node
        successors = self._successors
        successors[nid] = []
        for pid in preds:
            successors[pid].append(nid)
        self._remaining_pred[nid] = len(preds)
        if not preds:
            self._front.append(node)
        self.admitted += 1

    # -- frontier protocol -------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone counter bumped on every :meth:`resolve`.

        The lookahead result is a pure function of the resolved/front state, so callers
        issuing several queries between resolutions (e.g. a router inserting a run of
        SWAPs without executing a gate) can reuse the previous answer while the version
        is unchanged.
        """
        return self._version

    @property
    def front(self) -> List[FrontierNode]:
        """The executable nodes, in the order they became executable.

        This is the live list, not a copy: :meth:`resolve` removes the resolved node
        from it and appends the nodes it unlocks, so copy it before resolving while
        iterating over it.  Do not mutate it.
        """
        return self._front

    @property
    def front_size(self) -> int:
        """Number of executable nodes (:attr:`front` without copying it)."""
        return len(self._front)

    def is_done(self) -> bool:
        if self._front:
            return False
        # Live non-front nodes can't exist with an empty front (every live node's
        # remaining predecessors are live), so an empty front means an empty window.
        if not self._source_done:
            self._fill()
        return not self._front

    def num_remaining(self) -> int:
        """Live (admitted, unresolved) operations; the unread tail is not counted."""
        return len(self.nodes)

    def copy(self) -> "StreamingDAG":
        """An independent walk starting from this frontier's current state.

        Only a frontier whose source is exhausted can be copied: a stream cannot be
        replayed.  Node records, successor lists and wire tails never change once the
        source is exhausted, so they are shared, and a copy costs a few container
        copies instead of re-admitting every gate — layout sweeps and ensemble trials
        each walk a copy of one admitted frontier.
        """
        if not self._source_done:
            raise CircuitError("only a fully admitted StreamingDAG can be copied")
        clone = copy.copy(self)
        clone.nodes = dict(self.nodes)
        clone._successors = dict(self._successors)
        clone._remaining_pred = dict(self._remaining_pred)
        clone._front = list(self._front)
        return clone

    def resolve(self, node: DAGNode) -> List[DAGNode]:
        """Retire an executed front node, reclaim its state, and refill the window.

        Before the node is retired, the source is pulled (up to ``max_live_gates``)
        until the node is no longer the live tail of any of its wires.  This keeps
        retirement order-faithful to the whole-circuit walk: the node's wire successors
        get admitted — and therefore unlocked *by this resolve*, in admission order —
        rather than joining the front later at admission time, which would reorder the
        front layer and change scoring ties downstream.
        """
        front = self._front
        for index, live in enumerate(front):
            if live is node:
                break
        else:
            raise CircuitError(f"node {node.node_id} is not currently executable")
        nid = node.node_id
        if not self._source_done:
            wires = self._wire_keys(node)
            while (
                not self._source_done
                and len(self.nodes) < self.max_live_gates
                and any(self._wire_tail.get(wire) == nid for wire in wires)
            ):
                self._fill_to(min(self.max_live_gates, len(self.nodes) + self.window_gates))
        # Admission only appends to the front, so ``index`` still locates the node.
        del front[index]
        self._version += 1
        succs = self._successors.pop(nid)
        del self.nodes[nid]
        del self._remaining_pred[nid]
        self.retired += 1
        newly: List[DAGNode] = []
        remaining = self._remaining_pred
        for sid in succs:
            remaining[sid] -= 1
            if remaining[sid] == 0:
                succ = self.nodes[sid]
                front.append(succ)
                newly.append(succ)
        if not self._source_done:
            self._fill()
        return newly

    def lookahead(self, size: int, *, two_qubit_only: bool = True) -> List[DAGNode]:
        """The "extended layer": up to ``size`` closest successors of the front layer.

        Traversal is breadth-first from the current front layer through unresolved
        nodes.  A whole-circuit BFS can reach gates *beyond* the admitted window in
        fewer hops than many admitted gates, so matching it takes more than having
        ``size`` results: the BFS is only complete if it never traversed a node whose
        successor list may still grow — a live *wire tail*, whose next wire neighbour
        has not been admitted yet.  Whenever the BFS touches such a node (and the source
        has more gates), more gates are admitted (up to ``max_live_gates``) and the BFS
        restarts.  Within the spill allowance the result is therefore identical to the
        whole-circuit extended layer.
        """
        nodes = self.nodes
        successors = self._successors
        while True:
            if self._source_done:
                tails: Set[int] = set()
            else:
                tails = {tid for tid in self._wire_tail.values() if tid in nodes}
            incomplete = False
            result: List[DAGNode] = []
            visited: Set[int] = {n.node_id for n in self._front}
            queue: List[int] = []
            for node in self._front:
                if node.node_id in tails:
                    incomplete = True
                queue.extend(successors[node.node_id])
            idx = 0
            while idx < len(queue) and len(result) < size:
                nid = queue[idx]
                idx += 1
                if nid in visited or nid not in nodes:
                    continue
                visited.add(nid)
                if nid in tails:
                    incomplete = True
                node = nodes[nid]
                if not two_qubit_only or node.two_qubit:
                    result.append(node)
                queue.extend(successors[nid])
            if not incomplete or len(nodes) >= self.max_live_gates:
                return result
            self._fill_to(min(self.max_live_gates, len(nodes) + self.window_gates))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"StreamingDAG(window={self.window_gates}, live={len(self.nodes)}, "
            f"retired={self.retired})"
        )
