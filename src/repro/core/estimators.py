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

All three estimates read the same sequence: the routed ops on the SWAP's two wires,
newest first (:class:`_MergedHistory`).  It is merged lazily from the two wire histories,
one op at a time, and shared, so one estimate walks the routed prefix once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.circuit import Instruction
from ..circuit.gates import gate as make_gate
from ..synthesis.two_qubit import cnot_count_from_coordinates, weyl_coordinates
from ..transpiler.passes.basis import _ROUTABLE_2Q
from ..transpiler.passes.commutation import gates_commute
from ..transpiler.passes.swap_lowering import swap_orientation
from ..transpiler.passes.unitary_synthesis import block_matrix

_SWAP_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

#: Maximum number of trailing gates examined when reconstructing the preceding block.
MAX_BLOCK_GATES = 8
#: Maximum number of gates scanned through a commute set (paper Sec. IV-E uses 20).
MAX_COMMUTE_SCAN = 20
#: Entry bound of the process-wide Weyl CNOT-count memo; a miss that finds it full
#: clears it first.
COUNT_CACHE_MAX = 200_000


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


class _MergedHistory:
    """The routed ops on two wires, newest first, merged lazily from their histories.

    ``op(k)`` is the ``k``-th newest output op touching either wire (an op on both wires
    appears once), or ``None`` past the oldest.  Ops are fetched on first use and kept,
    so the C2q block and both Ccommute scans of one estimate share one walk; most
    estimates stop after the newest op or two.
    """

    __slots__ = ("_data", "_h0", "_h1", "_i0", "_i1", "positions", "ops")

    def __init__(self, data, h0: Sequence[int], h1: Sequence[int]) -> None:
        self._data = data
        self._h0 = h0
        self._h1 = h1
        self._i0 = len(h0) - 1
        self._i1 = len(h1) - 1
        self.positions: List[int] = []
        self.ops: List = []

    def op(self, k: int):
        ops = self.ops
        while len(ops) <= k:
            i0, i1 = self._i0, self._i1
            if i0 < 0 and i1 < 0:
                return None
            pos0 = self._h0[i0] if i0 >= 0 else -1
            pos1 = self._h1[i1] if i1 >= 0 else -1
            if pos0 >= pos1:
                pos = pos0
                self._i0 = i0 - 1
                if pos1 == pos0:
                    self._i1 = i1 - 1
            else:
                pos = pos1
                self._i1 = i1 - 1
            self.positions.append(pos)
            ops.append(self._data[pos])
        return ops[k]


class OptimizationEstimator:
    """Shared estimator used by the NASSC router for every SWAP candidate."""

    #: Process-wide Weyl CNOT-count memo.  Keys are content signatures, values a pure
    #: function of the key, so sharing across instances (e.g. the per-trial routers of a
    #: best-of-N ensemble) cannot change any estimate — it only skips repeat synthesis.
    _count_cache: Dict[Tuple, int] = {}

    def __init__(self) -> None:
        self._probe_cache: Dict[Tuple[int, int], Instruction] = {}
        #: ``gates_commute(op, cx(control, target))`` verdicts for routed two-qubit ops
        #: (``cx``/``swap``), keyed on the op's gate token and the role of each of its
        #: wires: 0 the probe's control, 1 its target, 2 neither.  Both gates are 0/1
        #: permutation matrices, so the verdict depends on nothing else.
        self._cx_probe_verdicts: Dict[Tuple, bool] = {}

    def _probe_cx(self, control: int, target: int) -> Instruction:
        """Shared ``cx(control, target)`` probe instruction (one allocation per pair)."""
        probe = self._probe_cache.get((control, target))
        if probe is None:
            probe = Instruction(make_gate("cx"), (control, target))
            self._probe_cache[(control, target)] = probe
        return probe

    @staticmethod
    def _merge(out, wire_history: Dict, p0: int, p1: int) -> _MergedHistory:
        return _MergedHistory(out.data, wire_history[p0], wire_history[p1])

    # ------------------------------------------------------------------
    # C2q: two-qubit block re-synthesis
    # ------------------------------------------------------------------

    @staticmethod
    def _block_size(merged: _MergedHistory, p0: int, p1: int, max_gates: int) -> int:
        """Length of the maximal run of newest ops confined to ``{p0, p1}``."""
        size = 0
        while size < max_gates:
            inst = merged.op(size)
            if inst is None:
                break
            gate = inst.gate
            if gate.name == "barrier" or not gate.is_unitary:
                break
            for q in inst.qubits:
                if q != p0 and q != p1:
                    return size
            size += 1
        return size

    def trailing_block(
        self, out, wire_history: Dict, p0: int, p1: int, max_gates: int = MAX_BLOCK_GATES
    ) -> List[int]:
        """Positions of the maximal trailing run of gates confined to ``{p0, p1}``."""
        merged = self._merge(out, wire_history, p0, p1)
        size = self._block_size(merged, p0, p1, max_gates)
        return sorted(merged.positions[:size])

    def _cached_count(self, key: Tuple, matrix_fn) -> int:
        cache = self._count_cache
        count = cache.get(key)
        if count is None:
            count = cnot_count_from_coordinates(weyl_coordinates(matrix_fn()))
            if len(cache) >= COUNT_CACHE_MAX:
                cache.clear()
            cache[key] = count
        return count

    def _c2q(self, merged: _MergedHistory, p0: int, p1: int) -> int:
        size = self._block_size(merged, p0, p1, MAX_BLOCK_GATES)
        block = merged.ops[:size]
        for inst in block:
            if len(inst.qubits) == 2:
                break
        else:
            return 0
        block.reverse()
        signature = []
        for inst in block:
            gate = inst.gate
            if gate.name == "unitary":
                # Explicit-matrix gates have no content token; key on the matrix itself
                # so two different unitaries never share a memoised CNOT count.
                token = ("unitary", gate.matrix().tobytes())
            else:
                token = gate.cache_token
            signature.append((token, tuple(0 if q == p0 else 1 for q in inst.qubits)))
        signature = tuple(signature)
        # Build the block matrix lazily: when both CNOT counts are already memoised by
        # signature (the common case on warm caches) the matrix is never materialised.
        materialised: List[np.ndarray] = []

        def matrix() -> np.ndarray:
            if not materialised:
                materialised.append(block_matrix(block, (p0, p1)))
            return materialised[0]

        count_before = self._cached_count(("blk", signature), matrix)
        count_after = self._cached_count(
            ("blk+swap", signature), lambda: _SWAP_MATRIX @ matrix()
        )
        reduction = 3 - (count_after - count_before)
        return int(max(0, min(3, reduction)))

    def estimate_c2q(self, out, wire_history: Dict, p0: int, p1: int) -> int:
        """CNOT reduction from merging the SWAP into the trailing block on ``(p0, p1)``."""
        return self._c2q(self._merge(out, wire_history, p0, p1), p0, p1)

    # ------------------------------------------------------------------
    # Ccommute1 / Ccommute2: commutation-based cancellation
    # ------------------------------------------------------------------

    def _commutes_with_cx(self, inst, control: int, target: int) -> bool:
        """``gates_commute(inst, cx(control, target))``, memoised for ``cx``/``swap`` ops."""
        if inst.gate.name not in _ROUTABLE_2Q:
            return gates_commute(inst, self._probe_cx(control, target))
        a, b = inst.qubits
        key = (
            inst.gate.cache_token,
            0 if a == control else 1 if a == target else 2,
            0 if b == control else 1 if b == target else 2,
        )
        verdict = self._cx_probe_verdicts.get(key)
        if verdict is None:
            verdict = gates_commute(inst, self._probe_cx(control, target))
            self._cx_probe_verdicts[key] = verdict
        return verdict

    def _scan_for_cancellation(
        self, merged: _MergedHistory, p0: int, p1: int, control: int, target: int
    ) -> Tuple[bool, bool]:
        """Scan backward for a CNOT or SWAP on ``(p0, p1)`` reachable through a commute set.

        Returns ``(found_cx, found_swap)`` for the first matching gate whose first CNOT of the
        candidate SWAP (``cx(control, target)``) could cancel with it.  The scan skips
        single-qubit gates (they are moved through the SWAP, Sec. IV-E) and gates that commute
        with ``cx(control, target)``; any other gate ends it.
        """
        for k in range(MAX_COMMUTE_SCAN):
            inst = merged.op(k)
            if inst is None:
                break
            gate = inst.gate
            name = gate.name
            if name == "barrier" or not gate.is_unitary:
                break
            qubits = inst.qubits
            if len(qubits) == 1:
                # Single-qubit gates before a SWAP are moved to the swapped wire.
                continue
            if name in _ROUTABLE_2Q:
                a, b = qubits
                if (a == p0 and b == p1) or (a == p1 and b == p0):
                    if name == "cx":
                        return a == control, False
                    # The last CNOT of the previous SWAP has the same orientation as
                    # its first.
                    return False, swap_orientation(gate.label, qubits) == control
            if not self._commutes_with_cx(inst, control, target):
                break
        return False, False

    def _commutation(
        self, merged: _MergedHistory, p0: int, p1: int
    ) -> Tuple[int, int, Optional[int]]:
        for control, target in ((p0, p1), (p1, p0)):
            found_cx, found_swap = self._scan_for_cancellation(
                merged, p0, p1, control, target
            )
            if found_cx:
                return 2, 0, control
            if found_swap:
                return 0, 2, control
        return 0, 0, None

    def estimate_commutation(
        self, out, wire_history: Dict, p0: int, p1: int
    ) -> Tuple[int, int, Optional[int]]:
        """``(Ccommute1, Ccommute2, orientation)`` for a SWAP candidate on ``(p0, p1)``."""
        return self._commutation(self._merge(out, wire_history, p0, p1), p0, p1)

    # ------------------------------------------------------------------

    def estimate(
        self,
        out,
        wire_history: Dict,
        p0: int,
        p1: int,
        *,
        enable_2q: bool = True,
        enable_commute1: bool = True,
        enable_commute2: bool = True,
    ) -> SwapEstimate:
        """Full estimate for a candidate SWAP on physical qubits ``(p0, p1)``."""
        merged = self._merge(out, wire_history, p0, p1)
        estimate = SwapEstimate()
        if enable_2q:
            estimate.c2q = self._c2q(merged, p0, p1)
        if enable_commute1 or enable_commute2:
            commute1, commute2, orientation = self._commutation(merged, p0, p1)
            estimate.ccommute1 = commute1 if enable_commute1 else 0
            estimate.ccommute2 = commute2 if enable_commute2 else 0
            if (estimate.ccommute1 or estimate.ccommute2) and orientation is not None:
                estimate.orientation = orientation
        return estimate
