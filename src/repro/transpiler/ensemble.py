"""Best-of-N ensemble routing: K seeds, one batched scoring kernel per step.

SABRE/NASSC routing is seed-sensitive: the routed two-qubit count varies run to run
with the random initial layout and the score tie-breaks.  :class:`EnsembleRouting`
runs ``num_trials`` independent (layout-selection + routing) trials in lockstep and
keeps the best result, where each trial's seeds are independent child streams of one
master seed (:func:`trial_stage_seeds`), so ``best_of=K`` is deterministic for a fixed
seed yet every trial explores a different part of the seed space.

The amortization trick is in the lockstep drive: every trial is a suspended
:meth:`~repro.transpiler.passes.sabre.SabreSwapRouter.route_steps` generator that
yields a :class:`~repro.transpiler.passes.sabre.ScoreRequest` at each heuristic
scoring point.  Each round, the requests of all live trials are stacked into ONE
batched call of the shared scoring kernel
(:func:`repro.transpiler.passes.sabre.front_ext_sums`) — index tables are zero-padded
to a common width, which is bit-exact because the distance matrix diagonal is ``0.0``
and the kernel accumulates non-negative terms in ascending column order — then each
trial's slice is finalized with that trial's own decay/estimator state.  Scores are
therefore bit-identical to running the trial alone, which makes the winner
reproducible across in-process and fanned-out execution (see ``trial_subset``).

Trials that fall hopelessly behind are pruned losslessly: once some trial has
finished with ``S`` swaps, any live trial that has already inserted more than ``S``
swaps can only finish with a strictly worse two-qubit estimate, so dropping it can
never change the winner — under any partition of trials into subsets, which is what
lets the server fan chunks across its process pool and reduce by the same key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import TranspilerError
from ..obs.counters import COUNTERS
from ..obs.tracer import current_tracer
from .passmanager import PropertySet, TransformationPass
from .passes.layout import Layout
from .passes.sabre import (
    RoutingResult,
    SabreSwapRouter,
    ScoreRequest,
    dag_emitter,
    front_ext_sums,
    layout_selection_steps,
    layout_traversals,
    whole_frontier,
)


def trial_stage_seeds(
    master_seed: Optional[int], num_trials: int
) -> List[Tuple[int, int]]:
    """Independent (layout_seed, routing_seed) pairs for each trial.

    Derived via ``np.random.SeedSequence.spawn`` so every (trial, stage) gets its own
    statistically independent stream, yet the whole table is a pure function of the
    master seed — bit-reproducible across runs and processes.  Fixes the historical
    seed plumbing where one integer seeded both the random layout and the routing
    tie-breaks (and every trial would have been identical).
    """
    root = np.random.SeedSequence(master_seed)
    seeds = []
    for child in root.spawn(int(num_trials)):
        layout_seq, routing_seq = child.spawn(2)
        seeds.append(
            (
                int(layout_seq.generate_state(1, np.uint64)[0]),
                int(routing_seq.generate_state(1, np.uint64)[0]),
            )
        )
    return seeds


@dataclass
class TrialOutcome:
    """Diagnostics for one ensemble trial (recorded in ``property_set['ensemble']``)."""

    trial: int
    layout_seed: int
    routing_seed: int
    pruned: bool = False
    num_swaps: Optional[int] = None
    est_two_qubit: Optional[int] = None
    depth: Optional[int] = None
    noise_cost: Optional[float] = None

    def to_dict(self) -> Dict:
        return {
            "trial": self.trial,
            "layout_seed": self.layout_seed,
            "routing_seed": self.routing_seed,
            "pruned": self.pruned,
            "num_swaps": self.num_swaps,
            "est_two_qubit": self.est_two_qubit,
            "depth": self.depth,
            "noise_cost": self.noise_cost,
        }


@dataclass
class _Trial:
    """One live trial: its routers, suspended generator, and bookkeeping."""

    index: int
    layout_seed: int
    routing_seed: int
    layout_router: SabreSwapRouter
    router: SabreSwapRouter
    steps: object = None
    reply: object = None
    routing_phase: bool = False
    result: Optional[RoutingResult] = None
    outcome: TrialOutcome = None
    metric: Optional[Tuple] = None
    span: object = None


def _trial_metrics(
    result: RoutingResult, distance: np.ndarray, noise_aware: bool
) -> Tuple[int, int, float]:
    """(estimated 2q count, depth, noise cost) of a routed trial.

    The two-qubit estimate counts each pending SWAP as its worst-case 3 CNOTs —
    strictly increasing in the swap count, which the lossless-pruning argument relies
    on.  Noise cost sums the routing distance of every routed two-qubit gate (3x for
    SWAPs) and only participates in the key when routing is noise-aware.
    """
    two_qubit = 0
    swaps = 0
    noise_cost = 0.0
    for node in result.dag.op_nodes():
        if node.name == "barrier" or not node.gate.is_unitary or len(node.qubits) != 2:
            continue
        if node.name == "swap":
            swaps += 1
            if noise_aware:
                noise_cost += 3.0 * float(distance[node.qubits[0], node.qubits[1]])
        else:
            two_qubit += 1
            if noise_aware:
                noise_cost += float(distance[node.qubits[0], node.qubits[1]])
    return two_qubit + 3 * swaps, result.circuit.depth(), noise_cost


def _stacked_sums(
    distance: np.ndarray,
    tables: List[Tuple[np.ndarray, np.ndarray]],
) -> List[np.ndarray]:
    """Row sums for several (rows_i x cols_i) index-table pairs in one kernel call.

    Tables are zero-padded to the widest column count; index ``(0, 0)`` hits the
    distance diagonal (``0.0``), and appending ``+0.0`` terms to a non-negative
    ascending-order accumulation leaves every float64 sum bit-identical.
    """
    width = max(a.shape[1] for a, _ in tables)
    total_rows = sum(a.shape[0] for a, _ in tables)
    stacked_a = np.zeros((total_rows, width), dtype=np.intp)
    stacked_b = np.zeros((total_rows, width), dtype=np.intp)
    offset = 0
    for a, b in tables:
        rows, cols = a.shape
        stacked_a[offset:offset + rows, :cols] = a
        stacked_b[offset:offset + rows, :cols] = b
        offset += rows
    sums, _ = front_ext_sums(distance, stacked_a, stacked_b, width)
    out = []
    offset = 0
    for a, _ in tables:
        rows = a.shape[0]
        out.append(sums[offset:offset + rows])
        offset += rows
    return out


def _evaluate_batch(pairs: List[Tuple[_Trial, ScoreRequest]]) -> None:
    """Answer every live trial's pending request, batching the kernel work.

    Every trial router aliases the one distance matrix of the compile (one builder
    made them all), so each request contributes its front (and extended) index tables
    to one stacked kernel call each; the per-trial finalization (decay, NASSC
    estimates) then runs on each trial's slice.  ``trial.reply`` ends up bit-identical
    to ``request.evaluate()``.
    """
    distance = pairs[0][1].router.distance
    COUNTERS.inc("routing.ensemble.batched_steps")
    COUNTERS.inc("routing.ensemble.batched_requests", len(pairs))
    front_tables = []
    ext_tables = []
    ext_slots = []
    candidate_arrays = []
    for trial, request in pairs:
        c0, c1 = request.router._candidate_arrays(request.candidates)
        candidate_arrays.append((c0, c1))
        mapped_a, mapped_b = request.router._mapped_index_arrays(
            c0, c1, request.qubit_pairs, request.layout
        )
        width = len(request.front_gates)
        front_tables.append((mapped_a[:, :width], mapped_b[:, :width]))
        if request.extended:
            ext_slots.append(len(ext_tables))
            ext_tables.append((mapped_a[:, width:], mapped_b[:, width:]))
        else:
            ext_slots.append(None)
    front_sums = _stacked_sums(distance, front_tables)
    ext_sums = _stacked_sums(distance, ext_tables) if ext_tables else []
    for position, (trial, request) in enumerate(pairs):
        c0, c1 = candidate_arrays[position]
        front_raw = front_sums[position]
        slot = ext_slots[position]
        ext_raw = ext_sums[slot] if slot is not None else np.zeros(len(c0))
        trial.reply = request.router._finalize_scores(
            request.candidates,
            c0,
            c1,
            front_raw,
            ext_raw,
            request.front_gates,
            request.extended,
        )


class EnsembleRouting(TransformationPass):
    """Layout + routing over ``num_trials`` seeds, keeping the best routed circuit.

    Replaces the (SabreLayoutSelection, SabreRouting) stage pair when
    ``TranspileOptions.best_of > 1``.  Sets the same ``layout`` / ``initial_layout`` /
    ``final_layout`` / ``num_swaps`` properties those passes set, plus an
    ``"ensemble"`` summary with per-trial outcomes.

    ``make_router(seed, layout=False)`` builds each trial's routers
    (:meth:`~repro.transpiler.builder.PipelineBuilder.make_router`); they all score
    against one distance matrix, which the batched kernel reads.

    ``trial_subset`` restricts execution to the given global trial indices without
    changing their seeds — the server fans large ``K`` across its process pool as
    subset chunks and reduces by :attr:`winner_key`, which equals the in-process
    winner because pruning is lossless under any partition.
    """

    def __init__(
        self,
        make_router: Callable[..., SabreSwapRouter],
        *,
        num_trials: int,
        seed: Optional[int] = None,
        layout_iterations: int = 2,
        noise_aware: bool = False,
        trial_subset: Optional[Sequence[int]] = None,
        prune: bool = True,
    ) -> None:
        super().__init__()
        if int(num_trials) < 1:
            raise TranspilerError(f"num_trials must be >= 1, got {num_trials}")
        self.make_router = make_router
        self.num_trials = int(num_trials)
        self.seed = seed
        self.layout_iterations = layout_iterations
        self.noise_aware = noise_aware
        if trial_subset is not None:
            subset = sorted({int(i) for i in trial_subset})
            if not subset or subset[0] < 0 or subset[-1] >= self.num_trials:
                raise TranspilerError(
                    f"trial_subset {list(trial_subset)!r} out of range for "
                    f"num_trials={self.num_trials}"
                )
            trial_subset = subset
        self.trial_subset = trial_subset
        self.prune = prune

    # ------------------------------------------------------------------

    def _make_trial(self, index: int, layout_seed: int, routing_seed: int) -> _Trial:
        return _Trial(
            index=index,
            layout_seed=layout_seed,
            routing_seed=routing_seed,
            layout_router=self.make_router(layout_seed, layout=True),
            router=self.make_router(routing_seed),
            outcome=TrialOutcome(index, layout_seed, routing_seed),
        )

    def _trial_steps(self, trial: _Trial, dag, frontier, traversals):
        """Full trial flow as one generator: random layout, refinement, routing."""
        num_physical = trial.router.coupling_map.num_qubits
        layout = Layout.random(dag.num_qubits, num_physical, seed=trial.layout_seed)
        if traversals is not None:
            layout = yield from layout_selection_steps(
                trial.layout_router, layout, self.layout_iterations, traversals
            )
        trial.routing_phase = True
        routed, emit = dag_emitter(dag, num_physical)
        result = yield from trial.router.route_steps(frontier.copy(), layout, emit=emit)
        result.dag = routed
        return result

    def run(self, dag, property_set: PropertySet):
        seeds = trial_stage_seeds(self.seed, self.num_trials)
        indices = (
            list(self.trial_subset)
            if self.trial_subset is not None
            else list(range(self.num_trials))
        )
        tracer = current_tracer()
        parent_id = None
        if tracer is not None and tracer._stack:
            parent_id = tracer._stack[-1].span_id
        # Admitted once; every trial walks its own copy.
        frontier = whole_frontier(dag.op_nodes(), dag.num_qubits, dag.num_clbits)
        traversals = layout_traversals(dag) if self.layout_iterations > 0 else None
        trials = []
        for index in indices:
            trial = self._make_trial(index, *seeds[index])
            trial.steps = self._trial_steps(trial, dag, frontier, traversals)
            if tracer is not None:
                trial.span = tracer.make_span(
                    f"routing.trial{index}",
                    parent_id=parent_id,
                    trial=index,
                    layout_seed=trial.layout_seed,
                    routing_seed=trial.routing_seed,
                )
            trials.append(trial)

        live = list(trials)
        finished: List[_Trial] = []
        incumbent_swaps: Optional[int] = None
        while live:
            pending: List[Tuple[_Trial, ScoreRequest]] = []
            still_live: List[_Trial] = []
            for trial in live:
                try:
                    request = trial.steps.send(trial.reply)
                except StopIteration as stop:
                    self._finish_trial(trial, stop.value, tracer)
                    finished.append(trial)
                    if incumbent_swaps is None or trial.result.num_swaps < incumbent_swaps:
                        incumbent_swaps = trial.result.num_swaps
                else:
                    trial.reply = None
                    pending.append((trial, request))
                    still_live.append(trial)
            live = still_live
            if self.prune and incumbent_swaps is not None:
                kept: List[Tuple[_Trial, ScoreRequest]] = []
                for trial, request in pending:
                    if (
                        trial.routing_phase
                        and trial.router.swaps_so_far > incumbent_swaps
                    ):
                        self._prune_trial(trial, tracer)
                        live.remove(trial)
                    else:
                        kept.append((trial, request))
                pending = kept
            if pending:
                _evaluate_batch(pending)

        if not finished:
            raise TranspilerError("ensemble routing finished no trial")
        winner = min(finished, key=lambda t: t.metric)
        COUNTERS.inc("routing.ensemble.trials", len(trials))
        COUNTERS.inc("routing.ensemble.pruned", sum(t.outcome.pruned for t in trials))
        result = winner.result
        property_set["layout"] = result.initial_layout
        property_set["initial_layout"] = result.initial_layout
        property_set["final_layout"] = result.final_layout
        property_set["num_swaps"] = result.num_swaps
        property_set["ensemble"] = {
            "num_trials": self.num_trials,
            "executed_trials": [t.index for t in trials],
            "winner": winner.index,
            "winner_key": list(winner.metric),
            "trials": [t.outcome.to_dict() for t in trials],
        }
        return result.dag

    # ------------------------------------------------------------------

    def _finish_trial(self, trial: _Trial, result: RoutingResult, tracer) -> None:
        trial.result = result
        est_2q, depth, noise_cost = _trial_metrics(
            result, trial.router.distance, self.noise_aware
        )
        # Noise cost participates in the ordering only for noise-aware routing; the
        # trailing index makes the key a total order (deterministic winner).
        trial.metric = (est_2q, depth, noise_cost, trial.index)
        outcome = trial.outcome
        outcome.num_swaps = result.num_swaps
        outcome.est_two_qubit = est_2q
        outcome.depth = depth
        outcome.noise_cost = noise_cost
        if trial.span is not None:
            trial.span.set("num_swaps", result.num_swaps)
            trial.span.set("est_two_qubit", est_2q)
            trial.span.set("depth", depth)
            if self.noise_aware:
                trial.span.set("noise_cost", noise_cost)
            tracer.record(trial.span)

    def _prune_trial(self, trial: _Trial, tracer) -> None:
        trial.steps.close()
        trial.outcome.pruned = True
        trial.outcome.num_swaps = trial.router.swaps_so_far
        if trial.span is not None:
            trial.span.set("pruned", True)
            trial.span.set("num_swaps", trial.router.swaps_so_far)
            tracer.record(trial.span)
