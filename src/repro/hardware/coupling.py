"""Device coupling maps and distance matrices.

The routing algorithms consult a :class:`CouplingMap` for qubit adjacency and the
all-pairs shortest-path distance matrix ``D`` used by both the SABRE and the NASSC cost
functions (Eq. 1 and 2 of the paper).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..exceptions import CouplingError


class CouplingMap:
    """Undirected qubit connectivity graph of a quantum device."""

    def __init__(self, edges: Iterable[Tuple[int, int]], num_qubits: Optional[int] = None,
                 name: str = "device") -> None:
        edge_set: Set[Tuple[int, int]] = set()
        max_qubit = -1
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise CouplingError(f"self-loop edge ({a}, {b}) is not allowed")
            edge_set.add((min(a, b), max(a, b)))
            max_qubit = max(max_qubit, a, b)
        self.name = name
        self.num_qubits = int(num_qubits) if num_qubits is not None else max_qubit + 1
        if self.num_qubits <= max_qubit:
            raise CouplingError("num_qubits smaller than the largest edge endpoint")
        self._edges: Tuple[Tuple[int, int], ...] = tuple(sorted(edge_set))
        self._adjacency: Dict[int, Set[int]] = {q: set() for q in range(self.num_qubits)}
        for a, b in self._edges:
            self._adjacency[a].add(b)
            self._adjacency[b].add(a)
        self._distance: Optional[np.ndarray] = None
        self._flat_adjacency: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._adjacency_matrix: Optional[np.ndarray] = None

    # ------------------------------------------------------------------

    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        return self._edges

    def neighbors(self, qubit: int) -> List[int]:
        self._check_qubit(qubit)
        return sorted(self._adjacency[qubit])

    def degree(self, qubit: int) -> int:
        self._check_qubit(qubit)
        return len(self._adjacency[qubit])

    def is_connected(self, a: int, b: int) -> bool:
        """True if qubits ``a`` and ``b`` share an edge."""
        self._check_qubit(a)
        self._check_qubit(b)
        return b in self._adjacency[a]

    def adjacency_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR-style flat adjacency ``(indptr, indices)`` (cached).

        The neighbours of qubit ``q`` are ``indices[indptr[q]:indptr[q + 1]]``, sorted
        ascending — the array form of :meth:`neighbors` the routing hot loop iterates
        without building per-call lists.
        """
        if self._flat_adjacency is None:
            indptr = np.zeros(self.num_qubits + 1, dtype=np.intp)
            chunks = []
            for q in range(self.num_qubits):
                neighbors = sorted(self._adjacency[q])
                indptr[q + 1] = indptr[q] + len(neighbors)
                chunks.extend(neighbors)
            indices = np.asarray(chunks, dtype=np.intp)
            indptr.flags.writeable = False
            indices.flags.writeable = False
            self._flat_adjacency = (indptr, indices)
        return self._flat_adjacency

    def adjacency_matrix(self) -> np.ndarray:
        """Dense boolean adjacency matrix (cached, read-only)."""
        if self._adjacency_matrix is None:
            matrix = np.zeros((self.num_qubits, self.num_qubits), dtype=bool)
            for a, b in self._edges:
                matrix[a, b] = matrix[b, a] = True
            matrix.flags.writeable = False
            self._adjacency_matrix = matrix
        return self._adjacency_matrix

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise CouplingError(f"qubit {qubit} out of range for {self.num_qubits}-qubit device")

    # ------------------------------------------------------------------

    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path distances (BFS per qubit, cached)."""
        if self._distance is None:
            dist = np.full((self.num_qubits, self.num_qubits), np.inf)
            for start in range(self.num_qubits):
                dist[start, start] = 0
                frontier = [start]
                level = 0
                seen = {start}
                while frontier:
                    level += 1
                    next_frontier = []
                    for node in frontier:
                        for nb in self._adjacency[node]:
                            if nb not in seen:
                                seen.add(nb)
                                dist[start, nb] = level
                                next_frontier.append(nb)
                    frontier = next_frontier
            self._distance = dist
        return self._distance

    def distance(self, a: int, b: int) -> float:
        """Shortest-path distance between two physical qubits."""
        self._check_qubit(a)
        self._check_qubit(b)
        return float(self.distance_matrix()[a, b])

    def is_fully_connected_graph(self) -> bool:
        """True if the device graph is connected (every qubit reachable from every other)."""
        return bool(np.isfinite(self.distance_matrix()).all())

    def diameter(self) -> int:
        dist = self.distance_matrix()
        finite = dist[np.isfinite(dist)]
        return int(finite.max()) if finite.size else 0

    def shortest_path(self, a: int, b: int) -> List[int]:
        """One shortest path between two qubits (BFS with parent tracking)."""
        self._check_qubit(a)
        self._check_qubit(b)
        if a == b:
            return [a]
        parents: Dict[int, int] = {a: a}
        frontier = [a]
        while frontier:
            next_frontier = []
            for node in frontier:
                for nb in sorted(self._adjacency[node]):
                    if nb not in parents:
                        parents[nb] = node
                        if nb == b:
                            path = [b]
                            while path[-1] != a:
                                path.append(parents[path[-1]])
                            return list(reversed(path))
                        next_frontier.append(nb)
            frontier = next_frontier
        raise CouplingError(f"no path between qubits {a} and {b}")

    # ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-safe representation (used by the service layer's job specs)."""
        return {
            "name": self.name,
            "num_qubits": self.num_qubits,
            "edges": [list(edge) for edge in self._edges],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CouplingMap":
        """Rebuild a coupling map from :meth:`to_dict` output."""
        return cls(
            [tuple(edge) for edge in data["edges"]],
            num_qubits=data["num_qubits"],
            name=data.get("name", "device"),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CouplingMap(name={self.name!r}, qubits={self.num_qubits}, edges={len(self._edges)})"
