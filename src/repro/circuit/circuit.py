"""Quantum circuit container.

A :class:`QuantumCircuit` is an ordered list of :class:`Instruction` objects applied to a
fixed register of qubits and classical bits.  It provides the builder interface used by the
benchmark generators, the metrics the paper reports (CNOT count, depth), and conversion to a
full unitary matrix for small circuits (used by the equivalence-checking tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import CircuitError
from .gates import Gate, gate as make_gate, unitary_gate


@dataclass(frozen=True)
class Instruction:
    """A gate application bound to specific qubits (and classical bits for measurements)."""

    gate: Gate
    qubits: Tuple[int, ...]
    clbits: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        object.__setattr__(self, "clbits", tuple(int(c) for c in self.clbits))
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"duplicate qubit arguments in {self.gate.name}{self.qubits}")
        if self.gate.name not in ("barrier",) and self.gate.is_unitary:
            if len(self.qubits) != self.gate.num_qubits:
                raise CircuitError(
                    f"gate '{self.gate.name}' acts on {self.gate.num_qubits} qubits, "
                    f"got {len(self.qubits)}"
                )

    @classmethod
    def trusted(
        cls, gate_obj: Gate, qubits: Tuple[int, ...], clbits: Tuple[int, ...] = ()
    ) -> "Instruction":
        """Validation-free constructor for already-checked operations.

        Used on conversion hot paths (e.g. :meth:`DAGCircuit.to_circuit`) where the
        operation was validated when it first entered the IR; ``qubits``/``clbits`` must
        already be int tuples.
        """
        inst = object.__new__(cls)
        object.__setattr__(inst, "gate", gate_obj)
        object.__setattr__(inst, "qubits", qubits)
        object.__setattr__(inst, "clbits", clbits)
        return inst

    @property
    def name(self) -> str:
        return self.gate.name

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def copy(self) -> "Instruction":
        """The instruction itself: instructions and their gates are immutable."""
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.gate!r} @ {self.qubits}"


class QuantumCircuit:
    """An ordered quantum circuit over ``num_qubits`` qubits and ``num_clbits`` classical bits."""

    def __init__(self, num_qubits: int, num_clbits: int = 0, name: str = "circuit") -> None:
        if num_qubits < 0 or num_clbits < 0:
            raise CircuitError("register sizes must be non-negative")
        self.num_qubits = int(num_qubits)
        self.num_clbits = int(num_clbits)
        self.name = name
        self.data: List[Instruction] = []
        self.metadata: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def append(self, gate_obj: Gate, qubits: Sequence[int], clbits: Sequence[int] = ()) -> Instruction:
        """Append a gate to the circuit and return the created instruction."""
        qubits = tuple(int(q) for q in qubits)
        clbits = tuple(int(c) for c in clbits)
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise CircuitError(f"qubit index {q} out of range for {self.num_qubits} qubits")
        for c in clbits:
            if not 0 <= c < self.num_clbits:
                raise CircuitError(f"clbit index {c} out of range for {self.num_clbits} clbits")
        inst = Instruction(gate_obj, qubits, clbits)
        self.data.append(inst)
        return inst

    def append_instruction(self, inst: Instruction) -> Instruction:
        """Append an existing instruction (re-validated against this circuit's registers)."""
        return self.append(inst.gate, inst.qubits, inst.clbits)

    def extend(self, instructions: Iterable[Instruction]) -> None:
        for inst in instructions:
            self.append_instruction(inst)

    # -- named builder methods ------------------------------------------------

    def _std(self, name: str, qubits: Sequence[int], *params: float) -> Instruction:
        return self.append(make_gate(name, *params), qubits)

    def id(self, q: int) -> Instruction:
        return self._std("id", [q])

    def x(self, q: int) -> Instruction:
        return self._std("x", [q])

    def y(self, q: int) -> Instruction:
        return self._std("y", [q])

    def z(self, q: int) -> Instruction:
        return self._std("z", [q])

    def h(self, q: int) -> Instruction:
        return self._std("h", [q])

    def s(self, q: int) -> Instruction:
        return self._std("s", [q])

    def sdg(self, q: int) -> Instruction:
        return self._std("sdg", [q])

    def t(self, q: int) -> Instruction:
        return self._std("t", [q])

    def tdg(self, q: int) -> Instruction:
        return self._std("tdg", [q])

    def sx(self, q: int) -> Instruction:
        return self._std("sx", [q])

    def sxdg(self, q: int) -> Instruction:
        return self._std("sxdg", [q])

    def rx(self, theta: float, q: int) -> Instruction:
        return self._std("rx", [q], theta)

    def ry(self, theta: float, q: int) -> Instruction:
        return self._std("ry", [q], theta)

    def rz(self, theta: float, q: int) -> Instruction:
        return self._std("rz", [q], theta)

    def p(self, theta: float, q: int) -> Instruction:
        return self._std("p", [q], theta)

    def u(self, theta: float, phi: float, lam: float, q: int) -> Instruction:
        return self._std("u", [q], theta, phi, lam)

    def cx(self, control: int, target: int) -> Instruction:
        return self._std("cx", [control, target])

    def cy(self, control: int, target: int) -> Instruction:
        return self._std("cy", [control, target])

    def cz(self, control: int, target: int) -> Instruction:
        return self._std("cz", [control, target])

    def ch(self, control: int, target: int) -> Instruction:
        return self._std("ch", [control, target])

    def cp(self, theta: float, control: int, target: int) -> Instruction:
        return self._std("cp", [control, target], theta)

    def crx(self, theta: float, control: int, target: int) -> Instruction:
        return self._std("crx", [control, target], theta)

    def cry(self, theta: float, control: int, target: int) -> Instruction:
        return self._std("cry", [control, target], theta)

    def crz(self, theta: float, control: int, target: int) -> Instruction:
        return self._std("crz", [control, target], theta)

    def rxx(self, theta: float, q0: int, q1: int) -> Instruction:
        return self._std("rxx", [q0, q1], theta)

    def ryy(self, theta: float, q0: int, q1: int) -> Instruction:
        return self._std("ryy", [q0, q1], theta)

    def rzz(self, theta: float, q0: int, q1: int) -> Instruction:
        return self._std("rzz", [q0, q1], theta)

    def swap(self, q0: int, q1: int, label: Optional[str] = None) -> Instruction:
        if label is not None:
            return self.append(make_gate("swap").with_label(label), [q0, q1])
        return self._std("swap", [q0, q1])

    def iswap(self, q0: int, q1: int) -> Instruction:
        return self._std("iswap", [q0, q1])

    def ccx(self, c0: int, c1: int, target: int) -> Instruction:
        return self._std("ccx", [c0, c1, target])

    def cswap(self, control: int, q0: int, q1: int) -> Instruction:
        return self._std("cswap", [control, q0, q1])

    def unitary(self, matrix: np.ndarray, qubits: Sequence[int], label: Optional[str] = None) -> Instruction:
        return self.append(unitary_gate(matrix, label), qubits)

    def measure(self, qubit: int, clbit: int) -> Instruction:
        return self.append(make_gate("measure"), [qubit], [clbit])

    def measure_all(self) -> None:
        """Measure every qubit into the classical bit of the same index (growing the creg)."""
        if self.num_clbits < self.num_qubits:
            self.num_clbits = self.num_qubits
        for q in range(self.num_qubits):
            self.measure(q, q)

    def reset(self, qubit: int) -> Instruction:
        return self.append(make_gate("reset"), [qubit])

    def barrier(self, *qubits: int) -> Instruction:
        qs = tuple(qubits) if qubits else tuple(range(self.num_qubits))
        inst = Instruction(make_gate("barrier"), qs)
        self.data.append(inst)
        return inst

    # ------------------------------------------------------------------
    # Inspection and metrics
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.data)

    def size(self) -> int:
        """Number of operations excluding barriers."""
        return sum(1 for inst in self.data if inst.name != "barrier")

    def count_ops(self) -> Dict[str, int]:
        """Histogram of operation names."""
        counts: Dict[str, int] = {}
        for inst in self.data:
            counts[inst.name] = counts.get(inst.name, 0) + 1
        return counts

    def num_nonlocal_gates(self) -> int:
        """Number of gates acting on two or more qubits (excluding barriers)."""
        return sum(
            1 for inst in self.data if inst.name != "barrier" and len(inst.qubits) >= 2
        )

    def count_gate(self, name: str) -> int:
        return sum(1 for inst in self.data if inst.name == name)

    def cx_count(self) -> int:
        """Number of CNOT gates — the paper's primary cost metric."""
        return self.count_gate("cx")

    def depth(self, *, two_qubit_only: bool = False) -> int:
        """Circuit depth (critical-path length over qubit and classical wires).

        Barriers synchronise the wires they touch but do not count as a layer, matching the
        Qiskit depth definition used by the paper's Table II.
        """
        return ops_depth(self.data, self.num_qubits, self.num_clbits, two_qubit_only)

    def two_qubit_pairs(self) -> List[Tuple[int, int]]:
        """Ordered list of qubit pairs touched by each two-qubit gate."""
        return [
            (inst.qubits[0], inst.qubits[1])
            for inst in self.data
            if len(inst.qubits) == 2 and inst.name != "barrier"
        ]

    def active_qubits(self) -> List[int]:
        used = set()
        for inst in self.data:
            used.update(inst.qubits)
        return sorted(used)

    def has_measurements(self) -> bool:
        return any(inst.name == "measure" for inst in self.data)

    # ------------------------------------------------------------------
    # Transformation helpers
    # ------------------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "QuantumCircuit":
        out = QuantumCircuit(self.num_qubits, self.num_clbits, name or self.name)
        out.data = list(self.data)
        out.metadata = dict(self.metadata)
        return out

    def copy_empty(self, name: Optional[str] = None) -> "QuantumCircuit":
        out = QuantumCircuit(self.num_qubits, self.num_clbits, name or self.name)
        out.metadata = dict(self.metadata)
        return out

    def inverse(self) -> "QuantumCircuit":
        """Inverse circuit (requires all operations to be unitary)."""
        out = self.copy_empty(f"{self.name}_dg")
        for inst in reversed(self.data):
            if inst.name == "barrier":
                out.barrier(*inst.qubits)
                continue
            if not inst.gate.is_unitary:
                raise CircuitError("cannot invert a circuit containing measurements/resets")
            out.append(inst.gate.inverse(), inst.qubits)
        return out

    def compose(self, other: "QuantumCircuit", qubits: Optional[Sequence[int]] = None) -> "QuantumCircuit":
        """Return a new circuit with ``other`` appended, optionally remapped onto ``qubits``."""
        if qubits is None:
            qubits = list(range(other.num_qubits))
        qubits = [int(q) for q in qubits]
        if len(qubits) != other.num_qubits:
            raise CircuitError("qubit mapping length must equal the composed circuit's width")
        out = self.copy()
        for inst in other.data:
            mapped = tuple(qubits[q] for q in inst.qubits)
            if inst.name == "barrier":
                out.barrier(*mapped)
            else:
                out.append(inst.gate, mapped, inst.clbits)
        return out

    def remap_qubits(self, mapping: Dict[int, int], num_qubits: Optional[int] = None) -> "QuantumCircuit":
        """Return a circuit with every qubit index ``q`` replaced by ``mapping[q]``."""
        width = num_qubits if num_qubits is not None else self.num_qubits
        out = QuantumCircuit(width, self.num_clbits, self.name)
        out.metadata = dict(self.metadata)
        for inst in self.data:
            mapped = tuple(mapping[q] for q in inst.qubits)
            if inst.name == "barrier":
                out.barrier(*mapped)
            else:
                out.append(inst.gate, mapped, inst.clbits)
        return out

    def without_directives(self) -> "QuantumCircuit":
        """Copy with measurements, resets and barriers removed (unitary part only)."""
        out = self.copy_empty()
        for inst in self.data:
            if inst.gate.is_unitary and inst.name != "barrier":
                out.append(inst.gate, inst.qubits)
        return out

    def reverse_ops(self) -> "QuantumCircuit":
        """Circuit with the instruction order reversed (used by reverse-traversal layout)."""
        out = self.copy_empty(f"{self.name}_rev")
        out.data = self.data[::-1]
        return out

    # ------------------------------------------------------------------
    # Unitary extraction (small circuits only)
    # ------------------------------------------------------------------

    def to_matrix(self, max_qubits: int = 10) -> np.ndarray:
        """Full unitary of the circuit (little-endian).  Only for small circuits."""
        if self.num_qubits > max_qubits:
            raise CircuitError(
                f"refusing to build a dense unitary on {self.num_qubits} qubits (> {max_qubits})"
            )
        dim = 2 ** self.num_qubits
        total = np.eye(dim, dtype=complex)
        for inst in self.data:
            if inst.name == "barrier":
                continue
            if not inst.gate.is_unitary:
                raise CircuitError("circuit contains non-unitary operations")
            total = expanded_gate_matrix(inst.gate, inst.qubits, self.num_qubits) @ total
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"QuantumCircuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"ops={len(self.data)}, cx={self.cx_count()})"
        )


def ops_depth(
    ops: Iterable, num_qubits: int, num_clbits: int, two_qubit_only: bool = False
) -> int:
    """Depth of a sequence of operations, as :meth:`QuantumCircuit.depth` defines it.

    ``ops`` is anything with ``name``/``qubits``/``clbits`` (instructions or the nodes
    of a :class:`~repro.circuit.dag.DAGCircuit`), in a topological order.
    """
    qubit_level = [0] * num_qubits
    clbit_level = [0] * num_clbits
    depth = 0
    for inst in ops:
        start = 0
        for q in inst.qubits:
            wire_level = qubit_level[q]
            if wire_level > start:
                start = wire_level
        for c in inst.clbits:
            wire_level = clbit_level[c]
            if wire_level > start:
                start = wire_level
        if inst.name != "barrier" and not (two_qubit_only and len(inst.qubits) < 2):
            start += 1
        for q in inst.qubits:
            qubit_level[q] = start
        for c in inst.clbits:
            clbit_level[c] = start
        if start > depth:
            depth = start
    return depth


def expand_gate_matrix(
    gate_matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Embed a ``k``-qubit gate matrix into the full ``num_qubits`` Hilbert space.

    ``qubits[j]`` carries bit ``j`` of the gate's little-endian basis index.
    """
    qubits = tuple(int(q) for q in qubits)
    k = len(qubits)
    dim = 2 ** num_qubits
    if gate_matrix.shape != (2 ** k, 2 ** k):
        raise CircuitError("gate matrix size does not match the number of qubits")
    full = np.zeros((dim, dim), dtype=complex)
    rest = [q for q in range(num_qubits) if q not in qubits]
    for rest_bits in range(2 ** len(rest)):
        base = 0
        for j, q in enumerate(rest):
            if (rest_bits >> j) & 1:
                base |= 1 << q
        indices = []
        for g in range(2 ** k):
            i = base
            for j, q in enumerate(qubits):
                if (g >> j) & 1:
                    i |= 1 << q
            indices.append(i)
        idx = np.array(indices)
        full[np.ix_(idx, idx)] = gate_matrix
    return full


@lru_cache(maxsize=8192)
def _expanded_named_matrix(
    token: Tuple[str, Tuple[float, ...]], qubits: Tuple[int, ...], num_qubits: int
) -> np.ndarray:
    from .gates import _shared_matrix

    expanded = expand_gate_matrix(_shared_matrix(*token), qubits, num_qubits)
    expanded.flags.writeable = False
    return expanded


#: Largest Hilbert space whose embeddings are worth retaining: the commutation fallback
#: works on joint supports of at most 4 qubits and block matrices live on 2.  Larger
#: expansions (one-off ``to_matrix`` calls on big circuits) are megabytes each and would
#: pin gigabytes in a long-lived process, so they stay transient.
_EXPANDED_CACHE_MAX_QUBITS = 4


def expanded_gate_matrix(gate_obj: Gate, qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Embedded full-space matrix of a gate application, cached for small spaces.

    Keyed on the gate's interned :attr:`~repro.circuit.gates.Gate.cache_token` plus the
    wire pattern, so repeated expansions of identical applications (commutation checks,
    block-matrix products) are served as shared **read-only** arrays.  Explicit-matrix
    ``unitary`` gates have no content token, and embeddings beyond
    ``_EXPANDED_CACHE_MAX_QUBITS`` qubits are too large to retain; both are expanded
    uncached.
    """
    if gate_obj.name == "unitary" or num_qubits > _EXPANDED_CACHE_MAX_QUBITS:
        return expand_gate_matrix(gate_obj.matrix(), qubits, num_qubits)
    return _expanded_named_matrix(
        gate_obj.cache_token, tuple(int(q) for q in qubits), num_qubits
    )
