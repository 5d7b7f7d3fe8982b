"""NASSC: optimization-aware qubit routing (the paper's contribution, Sec. IV).

:class:`NASSCSwapRouter` extends the SABRE router with the optimization-aware cost function
of Eq. 1/2: for every SWAP candidate the estimated CNOT reductions from two-qubit block
re-synthesis (``C2q``) and commutation-based cancellation (``Ccommute1``, ``Ccommute2``) are
subtracted from the nominal 3-CNOT SWAP cost.  Chosen SWAPs are additionally labelled with
the decomposition orientation that lets the subsequent passes realise the cancellation
(optimization-aware SWAP decomposition, Sec. IV-E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuit.dag import DAGNode
from ..hardware.coupling import CouplingMap
from ..obs.counters import COUNTERS
from ..transpiler.passes.sabre import SabreSwapRouter
from .estimators import OptimizationEstimator, SwapEstimate


@dataclass(frozen=True)
class NASSCConfig:
    """Which of the three optimizations the cost function is aware of (paper Sec. IV-F).

    All three are enabled by default, matching the configuration the paper selects after the
    Figure 9 ablation.
    """

    enable_2q_resynthesis: bool = True
    enable_commutation1: bool = True
    enable_commutation2: bool = True

    @classmethod
    def all_combinations(cls) -> List["NASSCConfig"]:
        """The 8 enable/disable combinations evaluated in Figure 9."""
        combos = []
        for b2q in (False, True):
            for bc1 in (False, True):
                for bc2 in (False, True):
                    combos.append(cls(b2q, bc1, bc2))
        return combos

    def as_tuple(self) -> Tuple[bool, bool, bool]:
        return (self.enable_2q_resynthesis, self.enable_commutation1, self.enable_commutation2)


class NASSCSwapRouter(SabreSwapRouter):
    """Optimization-aware SWAP router (NASSC); ``**kwargs`` are the SABRE router's."""

    pass_name = "NASSCRouting"

    #: The C2q/Ccommute estimators scan the routed prefix, so every run records it,
    #: layout sweeps included.
    scores_routed_prefix = True

    def __init__(
        self, coupling_map: CouplingMap, *, config: Optional[NASSCConfig] = None, **kwargs
    ) -> None:
        super().__init__(coupling_map, **kwargs)
        self.config = config or NASSCConfig()
        self._estimator = OptimizationEstimator()
        self._estimates: Dict[Tuple[int, int], SwapEstimate] = {}
        #: swap -> (wire tail positions, estimate, its float reduction total).
        self._estimate_memo: Dict[
            Tuple[int, int], Tuple[int, int, SwapEstimate, float]
        ] = {}
        #: Memo hits not yet added to ``COUNTERS`` (flushed once per scoring step).
        self._memo_hits = 0

    # ------------------------------------------------------------------

    def _reset_routing_memos(self) -> None:
        # Called by the base class at the top of every routing run, so stale estimates
        # never leak across runs.
        self._estimates = {}
        self._estimate_memo = {}
        self._memo_hits = 0

    # ------------------------------------------------------------------
    # Optimization-aware cost function (Eq. 2)
    # ------------------------------------------------------------------

    def _estimate_entry(
        self, swap: Tuple[int, int]
    ) -> Tuple[int, int, SwapEstimate, float]:
        """Memo entry of ``swap`` for the current routed prefix; records its estimate."""
        # An estimate is a pure function of the routed prefixes of the swap's two wires:
        # the estimator only visits output positions recorded in the two wire histories,
        # and the output is append-only with immutable entries.  Wire histories grow by
        # appending strictly increasing positions, so an unchanged tail position per wire
        # proves both histories — and hence the estimate — are unchanged since the last
        # SWAP insertion.  That makes the cross-round memo below exact, not heuristic.
        out = self._out
        history = out.wire_history
        p0, p1 = swap
        h0, h1 = history[p0], history[p1]
        tail0 = h0[-1] if h0 else -1
        tail1 = h1[-1] if h1 else -1
        entry = self._estimate_memo.get(swap)
        if entry is not None and entry[0] == tail0 and entry[1] == tail1:
            self._memo_hits += 1
        else:
            COUNTERS.inc("routing.nassc.estimates")
            config = self.config
            # ``out`` is the run's routed prefix: the estimators scan the resolved layer
            # through its position-keyed ``data``.
            estimate = self._estimator.estimate(
                out,
                history,
                p0,
                p1,
                enable_2q=config.enable_2q_resynthesis,
                enable_commute1=config.enable_commutation1,
                enable_commute2=config.enable_commutation2,
            )
            entry = (tail0, tail1, estimate, float(estimate.total(*config.as_tuple())))
            self._estimate_memo[swap] = entry
        self._estimates[swap] = entry[2]
        return entry

    def _flush_memo_hits(self) -> None:
        if self._memo_hits:
            COUNTERS.inc("routing.nassc.estimate_memo_hits", self._memo_hits)
            self._memo_hits = 0

    def _begin_scoring(self, candidates) -> None:
        # The per-step table is rebuilt each scoring round (the routed prefix may have
        # changed); candidates whose two wires are untouched since their last estimate
        # are revalidated cheaply through ``_estimate_memo`` in ``_estimate_entry``.
        self._estimates = {}
        super()._begin_scoring(candidates)

    def _finalize_scores(
        self,
        candidates,
        c0: np.ndarray,
        c1: np.ndarray,
        front_raw: np.ndarray,
        ext_raw: np.ndarray,
        front_gates: List[DAGNode],
        extended: List[DAGNode],
    ) -> np.ndarray:
        """Eq. 2 cost of every candidate from the shared kernel's raw distance sums.

        The distance terms come from the same vectorized kernel the SABRE base class uses;
        only the per-candidate optimization estimates (``C2q``/``Ccommute``) remain a
        Python loop, because each one inspects the routed prefix through the estimator.
        Elementwise identical to the historical per-swap scalar scoring.
        """
        entry = self._estimate_entry
        reductions = np.array([entry(swap)[3] for swap in candidates], dtype=float)
        # Every hit of this step is counted now, so none is pending when a run ends.
        self._flush_memo_hits()
        cost = (3.0 * front_raw - reductions) / max(len(front_gates), 1)
        if extended:
            cost += self.extended_set_weight * ext_raw / len(extended)
        decay = np.maximum(self._decay[c0], self._decay[c1])
        return decay * cost

    # ------------------------------------------------------------------
    # Optimization-aware SWAP decomposition (Sec. IV-E)
    # ------------------------------------------------------------------

    def _swap_label(self, swap) -> Optional[str]:
        estimate = self._estimates.get(swap)
        if estimate is None:
            estimate = self._estimate_entry(swap)[2]
            self._flush_memo_hits()
        if estimate.orientation is not None:
            return f"ctrl:{estimate.orientation}"
        return None

