"""Logical-to-physical qubit layout selection and application."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ...circuit.circuit import QuantumCircuit
from ...circuit.dag import DAGCircuit
from ...exceptions import TranspilerError
from ...hardware.coupling import CouplingMap
from ..passmanager import AnalysisPass, PropertySet, TransformationPass


class Layout:
    """A bijective mapping between logical (virtual) qubits and physical qubits.

    Backed by a pair of flat numpy index arrays — ``_l2p[logical] -> physical`` and
    ``_p2l[physical] -> logical`` (``-1`` for unoccupied physical qubits) — so the
    routers' inner loop gets O(1) SWAP updates and vectorized fancy-indexed lookups
    instead of per-call dict traffic.  Logical qubits are always the contiguous range
    ``0..n-1`` (which every constructor in the codebase produces).
    """

    __slots__ = ("_l2p", "_p2l")

    def __init__(self, logical_to_physical: Dict[int, int]) -> None:
        n = len(logical_to_physical)
        l2p = np.empty(n, dtype=np.intp)
        for logical, physical in logical_to_physical.items():
            logical = int(logical)
            if not 0 <= logical < n:
                raise TranspilerError(
                    "layout logical qubits must be the contiguous range 0..n-1"
                )
            l2p[logical] = int(physical)
        self._l2p = l2p
        self._p2l = self._invert(l2p)

    @staticmethod
    def _invert(l2p: np.ndarray) -> np.ndarray:
        size = int(l2p.max()) + 1 if len(l2p) else 0
        if len(l2p) and int(l2p.min()) < 0:
            raise TranspilerError("physical qubit indices must be non-negative")
        p2l = np.full(size, -1, dtype=np.intp)
        p2l[l2p] = np.arange(len(l2p), dtype=np.intp)
        if len(l2p) and np.count_nonzero(p2l >= 0) != len(l2p):
            raise TranspilerError("layout is not injective")
        return p2l

    @classmethod
    def _from_arrays(cls, l2p: np.ndarray, p2l: np.ndarray) -> "Layout":
        """Internal unchecked constructor used by :meth:`copy` (hot path)."""
        out = cls.__new__(cls)
        out._l2p = l2p
        out._p2l = p2l
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def trivial(cls, num_logical: int) -> "Layout":
        l2p = np.arange(num_logical, dtype=np.intp)
        return cls._from_arrays(l2p, l2p.copy())

    @classmethod
    def random(cls, num_logical: int, num_physical: int, seed: Optional[int] = None) -> "Layout":
        if num_logical > num_physical:
            raise TranspilerError("circuit has more qubits than the device")
        rng = np.random.default_rng(seed)
        physical = rng.permutation(num_physical)[:num_logical]
        return cls({l: int(p) for l, p in enumerate(physical)})

    @classmethod
    def from_physical_list(cls, physical_qubits: Sequence[int]) -> "Layout":
        return cls({l: int(p) for l, p in enumerate(physical_qubits)})

    # -- queries ------------------------------------------------------------

    def physical(self, logical: int) -> int:
        # Match the old dict behaviour: unknown (including negative) logical qubits are
        # a loud KeyError, never a silent numpy wraparound.
        if not 0 <= logical < len(self._l2p):
            raise KeyError(logical)
        return int(self._l2p[logical])

    def logical(self, physical: int) -> Optional[int]:
        if not 0 <= physical < len(self._p2l):
            return None
        value = self._p2l[physical]
        return None if value < 0 else int(value)

    def physical_array(self) -> np.ndarray:
        """Flat ``logical -> physical`` index array (do not mutate; used for fancy indexing)."""
        return self._l2p

    def logical_to_physical(self) -> Dict[int, int]:
        return {l: int(p) for l, p in enumerate(self._l2p)}

    def num_logical(self) -> int:
        return len(self._l2p)

    def copy(self) -> "Layout":
        return Layout._from_arrays(self._l2p.copy(), self._p2l.copy())

    def to_pairs(self) -> List[List[int]]:
        """JSON-safe ``[[logical, physical], ...]`` representation, sorted by logical qubit."""
        return [[l, int(p)] for l, p in enumerate(self._l2p)]

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[int]]) -> "Layout":
        """Rebuild a layout from :meth:`to_pairs` output."""
        return cls({int(l): int(p) for l, p in pairs})

    # -- mutation -----------------------------------------------------------

    def _ensure_physical(self, physical: int) -> None:
        if physical >= len(self._p2l):
            grown = np.full(physical + 1, -1, dtype=np.intp)
            grown[: len(self._p2l)] = self._p2l
            self._p2l = grown

    def swap_physical(self, p0: int, p1: int) -> None:
        """Exchange the logical qubits sitting on two physical qubits (SWAP insertion)."""
        self._ensure_physical(max(p0, p1))
        p2l = self._p2l
        l0 = p2l[p0]
        l1 = p2l[p1]
        if l0 >= 0:
            self._l2p[l0] = p1
        if l1 >= 0:
            self._l2p[l1] = p0
        p2l[p0] = l1
        p2l[p1] = l0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Layout) and np.array_equal(other._l2p, self._l2p)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Layout({self.logical_to_physical()})"


class SetLayout(AnalysisPass):
    """Record a chosen layout in the property set."""

    def __init__(self, layout: Layout) -> None:
        super().__init__()
        self.layout = layout

    def run(self, dag: DAGCircuit, property_set: PropertySet) -> None:
        property_set["layout"] = self.layout.copy()


class TrivialLayout(AnalysisPass):
    """Choose the identity layout (logical i -> physical i)."""

    def __init__(self, coupling_map: CouplingMap) -> None:
        super().__init__()
        self.coupling_map = coupling_map

    def run(self, dag: DAGCircuit, property_set: PropertySet) -> None:
        if dag.num_qubits > self.coupling_map.num_qubits:
            raise TranspilerError("circuit does not fit on the device")
        property_set["layout"] = Layout.trivial(dag.num_qubits)


class ApplyLayout(TransformationPass):
    """Rewrite the DAG over the device's physical qubits using the chosen layout."""

    def __init__(self, coupling_map: CouplingMap) -> None:
        super().__init__()
        self.coupling_map = coupling_map

    def run(self, dag: DAGCircuit, property_set: PropertySet) -> DAGCircuit:
        layout: Optional[Layout] = property_set.get("layout")
        if layout is None:
            layout = Layout.trivial(dag.num_qubits)
            property_set["layout"] = layout
        mapping = {l: layout.physical(l) for l in range(dag.num_qubits)}
        out = DAGCircuit(self.coupling_map.num_qubits, dag.num_clbits, dag.name)
        out.metadata = dict(dag.metadata)
        for node in dag.op_nodes():
            mapped = tuple(mapping[q] for q in node.qubits)
            out.add_node(node.gate, mapped, node.clbits)
        property_set["original_num_qubits"] = dag.num_qubits
        return out
