"""CNOT-reduction estimators for SWAP candidates (paper Sec. IV-D and IV-E).

For every candidate SWAP considered during routing, NASSC estimates how many of the three
CNOTs the SWAP would normally cost can be recovered by the subsequent optimizations:

* ``C2q`` — reduction from re-synthesising the two-qubit block the SWAP would join
  (0, 1, 2 or 3).
* ``Ccommute1`` — reduction (0 or 2) from cancelling the SWAP's first CNOT against a CNOT
  already in the circuit through commutation.
* ``Ccommute2`` — reduction (0 or 2) from cancelling CNOTs across two SWAP gates that
  sandwich a commute set.

The estimators inspect the *already routed* part of the circuit (the resolved layer), which
is exactly the information the compiler has at SWAP-insertion time.  ``out`` is anything
whose ``data`` can be indexed by output position — the router's live
:class:`~repro.transpiler.passes.sabre.StreamingOutput` (a position-keyed dict) during
routing, or a plain :class:`~repro.circuit.circuit.QuantumCircuit` in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.circuit import Instruction, QuantumCircuit
from ..circuit.gates import gate as make_gate
from ..synthesis.two_qubit import cnot_count_from_coordinates, weyl_coordinates
from ..transpiler.passes.commutation import gates_commute

_SWAP_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

#: Maximum number of trailing gates examined when reconstructing the preceding block.
MAX_BLOCK_GATES = 8
#: Maximum number of gates scanned through a commute set (paper Sec. IV-E uses 20).
MAX_COMMUTE_SCAN = 20


@dataclass
class SwapEstimate:
    """Estimated CNOT reductions for one candidate SWAP."""

    c2q: int = 0
    ccommute1: int = 0
    ccommute2: int = 0
    orientation: Optional[int] = None  # physical qubit that should control the first CNOT

    def total(self, enable_2q: bool = True, enable_commute1: bool = True,
              enable_commute2: bool = True) -> int:
        total = 0
        if enable_2q:
            total += self.c2q
        if enable_commute1:
            total += self.ccommute1
        if enable_commute2:
            total += self.ccommute2
        return total


class OptimizationEstimator:
    """Shared estimator used by the NASSC router for every SWAP candidate."""

    #: Process-wide Weyl CNOT-count memo.  Keys are content signatures, values a pure
    #: function of the key, so sharing across instances (e.g. the per-trial routers of a
    #: best-of-N ensemble) cannot change any estimate — it only skips repeat synthesis.
    _count_cache: Dict[Tuple, int] = {}

    def __init__(self) -> None:
        self._probe_cache: Dict[Tuple[int, int], Instruction] = {}
        # Per-output memo of scan-step outcomes, keyed by (position, control, target).
        # Valid because ``out`` is append-only with immutable entries: an already-seen
        # position always classifies identically.  Reset whenever a different output
        # object shows up (each routing run creates a fresh one).
        self._scan_out: Optional[QuantumCircuit] = None
        self._scan_memo: Dict[Tuple[int, int, int], Optional[Tuple[bool, bool]]] = {}

    def _probe_cx(self, control: int, target: int) -> Instruction:
        """Shared ``cx(control, target)`` probe instruction (one allocation per pair)."""
        probe = self._probe_cache.get((control, target))
        if probe is None:
            probe = Instruction(make_gate("cx"), (control, target))
            self._probe_cache[(control, target)] = probe
        return probe

    # ------------------------------------------------------------------
    # Helpers over the routed prefix
    # ------------------------------------------------------------------

    @staticmethod
    def _merged_backward(
        out: QuantumCircuit, wire_history: Dict[int, List[int]], p0: int, p1: int
    ):
        """Iterate backward over output positions touching ``p0`` or ``p1`` (no duplicates)."""
        i0 = len(wire_history[p0]) - 1
        i1 = len(wire_history[p1]) - 1
        while i0 >= 0 or i1 >= 0:
            pos0 = wire_history[p0][i0] if i0 >= 0 else -1
            pos1 = wire_history[p1][i1] if i1 >= 0 else -1
            pos = max(pos0, pos1)
            if pos < 0:
                return
            if pos == pos0:
                i0 -= 1
            if pos == pos1:
                i1 -= 1
            yield pos, out.data[pos]

    def trailing_block(
        self,
        out: QuantumCircuit,
        wire_history: Dict[int, List[int]],
        p0: int,
        p1: int,
        max_gates: int = MAX_BLOCK_GATES,
    ) -> List[int]:
        """Positions of the maximal trailing run of gates confined to ``{p0, p1}``."""
        block: List[int] = []
        for pos, inst in self._merged_backward(out, wire_history, p0, p1):
            if len(block) >= max_gates:
                break
            if (not inst.gate.is_unitary) or inst.name == "barrier":
                break
            if not set(inst.qubits) <= {p0, p1}:
                break
            block.append(pos)
        return sorted(block)

    # ------------------------------------------------------------------
    # C2q: two-qubit block re-synthesis
    # ------------------------------------------------------------------

    def _block_signature(self, out: QuantumCircuit, positions: Sequence[int], p0: int, p1: int) -> Tuple:
        mapping = {p0: 0, p1: 1}
        signature = []
        for pos in positions:
            op = out.data[pos]
            if op.name == "unitary":
                # Explicit-matrix gates have no content token; key on the matrix itself
                # so two different unitaries never share a memoised CNOT count.
                token = ("unitary", op.gate.matrix().tobytes())
            else:
                token = op.gate.cache_token
            signature.append((token, tuple(mapping[q] for q in op.qubits)))
        return tuple(signature)

    def _block_matrix(self, out: QuantumCircuit, positions: Sequence[int], p0: int, p1: int) -> np.ndarray:
        local = QuantumCircuit(2)
        mapping = {p0: 0, p1: 1}
        for pos in positions:
            inst = out.data[pos]
            local.append(inst.gate.copy(), tuple(mapping[q] for q in inst.qubits))
        return local.to_matrix()

    def _cached_count(self, key: Tuple, matrix_fn) -> int:
        if key not in self._count_cache:
            coords = weyl_coordinates(matrix_fn())
            self._count_cache[key] = cnot_count_from_coordinates(coords)
            if len(self._count_cache) > 200000:
                self._count_cache.clear()
        return self._count_cache[key]

    def estimate_c2q(
        self,
        out: QuantumCircuit,
        wire_history: Dict[int, List[int]],
        p0: int,
        p1: int,
    ) -> int:
        """CNOT reduction from merging the SWAP into the trailing block on ``(p0, p1)``."""
        block = self.trailing_block(out, wire_history, p0, p1)
        if not any(len(out.data[pos].qubits) == 2 for pos in block):
            return 0
        signature = self._block_signature(out, block, p0, p1)
        # Build the block matrix lazily: when both CNOT counts are already memoised by
        # signature (the common case on warm caches) the matrix is never materialised.
        materialised: List[np.ndarray] = []

        def block_matrix() -> np.ndarray:
            if not materialised:
                materialised.append(self._block_matrix(out, block, p0, p1))
            return materialised[0]

        count_before = self._cached_count(("blk", signature), block_matrix)
        count_after = self._cached_count(
            ("blk+swap", signature), lambda: _SWAP_MATRIX @ block_matrix()
        )
        reduction = 3 - (count_after - count_before)
        return int(max(0, min(3, reduction)))

    # ------------------------------------------------------------------
    # Ccommute1 / Ccommute2: commutation-based cancellation
    # ------------------------------------------------------------------

    def _scan_for_cancellation(
        self,
        out: QuantumCircuit,
        wire_history: Dict[int, List[int]],
        p0: int,
        p1: int,
        control: int,
        target: int,
    ) -> Tuple[bool, bool]:
        """Scan backward for a CNOT or SWAP on ``(p0, p1)`` reachable through a commute set.

        Returns ``(found_cx, found_swap)`` for the first matching gate whose first CNOT of the
        candidate SWAP (``cx(control, target)``) could cancel with it.  The scan skips
        single-qubit gates (they are moved through the SWAP, Sec. IV-E) and gates that commute
        with ``cx(control, target)``.
        """
        if out is not self._scan_out:
            self._scan_out = out
            self._scan_memo = {}
        memo = self._scan_memo
        scanned = 0
        for pos, inst in self._merged_backward(out, wire_history, p0, p1):
            if scanned >= MAX_COMMUTE_SCAN:
                break
            scanned += 1
            # ``None`` means "skip and keep scanning"; a tuple is the scan's verdict.
            key = (pos, control, target)
            if key in memo:
                step = memo[key]
            else:
                step = self._scan_step(inst, p0, p1, control, target)
                memo[key] = step
            if step is None:
                continue
            return step
        return False, False

    def _scan_step(
        self, inst: Instruction, p0: int, p1: int, control: int, target: int
    ) -> Optional[Tuple[bool, bool]]:
        """Classify one scanned instruction: ``None`` to keep scanning, else the verdict."""
        if (not inst.gate.is_unitary) or inst.name == "barrier":
            return False, False
        if len(inst.qubits) == 1:
            # Single-qubit gates before a SWAP are moved to the swapped wire.
            return None
        if inst.name == "cx" and set(inst.qubits) == {p0, p1}:
            if inst.qubits == (control, target):
                return True, False
            return False, False
        if inst.name == "swap" and set(inst.qubits) == {p0, p1}:
            from ..transpiler.passes.swap_lowering import swap_orientation

            previous_control = swap_orientation(inst.gate.label, inst.qubits)
            # The last CNOT of the previous SWAP has the same orientation as its first.
            return False, previous_control == control
        if gates_commute(inst, self._probe_cx(control, target)):
            return None
        return False, False

    def estimate_commutation(
        self,
        out: QuantumCircuit,
        wire_history: Dict[int, List[int]],
        p0: int,
        p1: int,
    ) -> Tuple[int, int, Optional[int]]:
        """``(Ccommute1, Ccommute2, orientation)`` for a SWAP candidate on ``(p0, p1)``."""
        for control, target in ((p0, p1), (p1, p0)):
            found_cx, found_swap = self._scan_for_cancellation(
                out, wire_history, p0, p1, control, target
            )
            if found_cx:
                return 2, 0, control
            if found_swap:
                return 0, 2, control
        return 0, 0, None

    # ------------------------------------------------------------------

    def estimate(
        self,
        out: QuantumCircuit,
        wire_history: Dict[int, List[int]],
        p0: int,
        p1: int,
        *,
        enable_2q: bool = True,
        enable_commute1: bool = True,
        enable_commute2: bool = True,
    ) -> SwapEstimate:
        """Full estimate for a candidate SWAP on physical qubits ``(p0, p1)``."""
        estimate = SwapEstimate()
        if enable_2q:
            estimate.c2q = self.estimate_c2q(out, wire_history, p0, p1)
        if enable_commute1 or enable_commute2:
            commute1, commute2, orientation = self.estimate_commutation(
                out, wire_history, p0, p1
            )
            estimate.ccommute1 = commute1 if enable_commute1 else 0
            estimate.ccommute2 = commute2 if enable_commute2 else 0
            if (estimate.ccommute1 or estimate.ccommute2) and orientation is not None:
                estimate.orientation = orientation
        return estimate
