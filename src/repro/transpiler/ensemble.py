"""Best-of-N ensemble routing: K seeded trials, run one after another, keep the best.

SABRE/NASSC routing is seed-sensitive: the routed two-qubit count varies run to run
with the random initial layout and the score tie-breaks.  :class:`EnsembleRouting`
runs ``num_trials`` independent (layout-selection + routing) trials and keeps the best
result, where each trial's seeds are independent child streams of one master seed
(:func:`trial_stage_seeds`), so ``best_of=K`` is deterministic for a fixed seed yet
every trial explores a different part of the seed space.

Each trial is exactly the solo path with its own seeds: a random layout, the
reverse-traversal refinement (:func:`~repro.transpiler.passes.sabre.refine_layout`),
then one :meth:`~repro.transpiler.passes.sabre.SabreSwapRouter.route_steps` run into a
fresh output DAG.

Trials that fall behind are pruned losslessly: ``route_steps`` yields its running SWAP
count at every scoring point, and once some trial has finished with ``S`` SWAPs, a
later trial that has already inserted more than ``S`` can only finish with a strictly
worse two-qubit estimate (the fixed non-SWAP two-qubit count plus 3 per SWAP), so
stopping it never changes the winner.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..circuit.circuit import ops_depth
from ..exceptions import TranspilerError
from ..obs.counters import COUNTERS
from ..obs.tracer import current_tracer
from .passmanager import PropertySet, TransformationPass
from .passes.layout import Layout
from .passes.sabre import (
    RoutingResult,
    SabreSwapRouter,
    dag_emitter,
    layout_traversals,
    refine_layout,
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


def _trial_metrics(
    result: RoutingResult, distance: np.ndarray, noise_aware: bool
) -> Tuple[int, int, float]:
    """(estimated 2q count, depth, noise cost) of a routed trial.

    The two-qubit estimate counts each pending SWAP as its worst-case 3 CNOTs —
    strictly increasing in the swap count, which the lossless-pruning argument relies
    on.  Depth is the routed circuit's, read off the DAG's nodes in linear order.
    Noise cost sums the routing distance of every routed two-qubit gate (3x for
    SWAPs) and only participates in the key when routing is noise-aware.
    """
    two_qubit = 0
    swaps = 0
    noise_cost = 0.0
    nodes = result.dag.op_nodes()
    for node in nodes:
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
    depth = ops_depth(nodes, result.dag.num_qubits, result.dag.num_clbits)
    return two_qubit + 3 * swaps, depth, noise_cost


class EnsembleRouting(TransformationPass):
    """Layout + routing over ``num_trials`` seeds, keeping the best routed circuit.

    Replaces the (SabreLayoutSelection, SabreRouting) stage pair when
    ``TranspileOptions.best_of > 1``.  Sets the same ``layout`` / ``initial_layout`` /
    ``final_layout`` / ``num_swaps`` properties those passes set, plus an
    ``"ensemble"`` summary with per-trial outcomes.

    ``make_router(seed, layout=False)`` builds each trial's routers
    (:meth:`~repro.transpiler.builder.PipelineBuilder.make_router`).
    """

    def __init__(
        self,
        make_router: Callable[..., SabreSwapRouter],
        *,
        num_trials: int,
        seed: Optional[int] = None,
        layout_iterations: int = 2,
        noise_aware: bool = False,
    ) -> None:
        super().__init__()
        if int(num_trials) < 1:
            raise TranspilerError(f"num_trials must be >= 1, got {num_trials}")
        self.make_router = make_router
        self.num_trials = int(num_trials)
        self.seed = seed
        self.layout_iterations = layout_iterations
        self.noise_aware = noise_aware

    def run(self, dag, property_set: PropertySet):
        tracer = current_tracer()
        # Admitted once; every trial walks its own copy.
        frontier = whole_frontier(dag.op_nodes(), dag.num_qubits, dag.num_clbits)
        traversals = layout_traversals(dag) if self.layout_iterations > 0 else None
        outcomes: List[TrialOutcome] = []
        best: Optional[Tuple[Tuple, RoutingResult]] = None
        fewest_swaps: Optional[int] = None
        seeds = trial_stage_seeds(self.seed, self.num_trials)
        for index, (layout_seed, routing_seed) in enumerate(seeds):
            outcome = TrialOutcome(index, layout_seed, routing_seed)
            outcomes.append(outcome)
            span_context = nullcontext() if tracer is None else tracer.span(
                f"routing.trial{index}",
                trial=index,
                layout_seed=layout_seed,
                routing_seed=routing_seed,
            )
            with span_context as span:
                result = self._run_trial(dag, frontier, traversals, outcome, fewest_swaps)
                if span is not None:
                    self._annotate(span, outcome)
            if result is None:
                continue
            # Noise cost is 0.0 unless routing is noise-aware; the trailing index makes
            # the key a total order (deterministic winner).
            key = (outcome.est_two_qubit, outcome.depth, outcome.noise_cost, index)
            if best is None or key < best[0]:
                best = (key, result)
            if fewest_swaps is None or result.num_swaps < fewest_swaps:
                fewest_swaps = result.num_swaps

        winner_key, result = best
        COUNTERS.inc("routing.ensemble.trials", len(outcomes))
        COUNTERS.inc("routing.ensemble.pruned", sum(o.pruned for o in outcomes))
        property_set["layout"] = result.initial_layout
        property_set["initial_layout"] = result.initial_layout
        property_set["final_layout"] = result.final_layout
        property_set["num_swaps"] = result.num_swaps
        property_set["ensemble"] = {
            "num_trials": self.num_trials,
            "winner": winner_key[-1],
            "winner_key": list(winner_key),
            "trials": [o.to_dict() for o in outcomes],
        }
        return result.dag

    def _run_trial(
        self, dag, frontier, traversals, outcome: TrialOutcome, fewest_swaps: Optional[int]
    ) -> Optional[RoutingResult]:
        """Run one trial on the solo path and fill in ``outcome``.

        Returns the routed result, or ``None`` once the trial has inserted more SWAPs
        than ``fewest_swaps`` (the best finished trial's count) and was stopped.
        """
        router = self.make_router(outcome.routing_seed)
        num_physical = router.coupling_map.num_qubits
        layout = Layout.random(dag.num_qubits, num_physical, seed=outcome.layout_seed)
        if traversals is not None:
            layout = refine_layout(
                self.make_router(outcome.layout_seed, layout=True),
                layout,
                self.layout_iterations,
                traversals,
            )
        routed, emit = dag_emitter(dag, num_physical)
        steps = router.route_steps(frontier.copy(), layout, emit=emit)
        while True:
            try:
                swaps = next(steps)
            except StopIteration as stop:
                result = stop.value
                break
            if fewest_swaps is not None and swaps > fewest_swaps:
                steps.close()
                outcome.pruned = True
                outcome.num_swaps = swaps
                return None
        result.dag = routed
        est_2q, depth, noise_cost = _trial_metrics(result, router.distance, self.noise_aware)
        outcome.num_swaps = result.num_swaps
        outcome.est_two_qubit = est_2q
        outcome.depth = depth
        outcome.noise_cost = noise_cost
        return result

    def _annotate(self, span, outcome: TrialOutcome) -> None:
        span.set("num_swaps", outcome.num_swaps)
        if outcome.pruned:
            span.set("pruned", True)
            return
        span.set("est_two_qubit", outcome.est_two_qubit)
        span.set("depth", outcome.depth)
        if self.noise_aware:
            span.set("noise_cost", outcome.noise_cost)
