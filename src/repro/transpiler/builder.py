"""Staged pipeline builder: named stages + preset optimization levels.

``PipelineBuilder`` composes the :class:`~repro.transpiler.passmanager.PassManager` a
compile runs from six named, individually overridable stages::

    init          logical-circuit decomposition and pre-routing cleanup
    layout        initial qubit placement
    routing       SWAP insertion (from the routing-method registry) + router follow-ups
    post_routing  SWAP lowering and the post-routing optimization loop
    finalize      output verification (coupling-map check)
    schedule      optional lowering to a timed schedule (``options.schedule``)

The stage contents are chosen by the preset optimization level of the options (``O0``
decomposes and routes only; ``O1`` is the paper's Fig. 2 pipeline; ``O2`` deepens the
post-routing fixed-point loop; ``O3`` additionally turns on noise-aware layout/routing
whenever the target carries calibration data).  Any stage can then be inspected,
replaced, or extended before :meth:`PipelineBuilder.build` assembles the manager —
per-scenario pipelines no longer require editing ``transpile()`` itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import TranspilerError
from ..hardware.target import Target
from .passmanager import FixedPoint, PassManager, ScheduleItem
from .passes.basis import CheckRoutable, Decompose
from .passes.check_map import CheckMap
from .passes.commutation import CommutativeCancellation
from .passes.optimize_1q import Optimize1qGates, RemoveIdentities
from .passes.sabre import SabreLayoutSelection, SabreRouting, SabreSwapRouter
from .passes.swap_lowering import SwapLowering
from .passes.unitary_synthesis import UnitarySynthesis
from .registry import RoutingPlan, get_routing

#: Post-routing re-synthesis/cancellation loop cap per level.  ``O1`` keeps the
#: historical cap of 2 (bit-identical to the paper pipeline); ``O2``/``O3`` allow the
#: loop to keep iterating while it still changes the circuit.
LEVEL_FIXED_POINT_ITERATIONS: Dict[str, int] = {"O1": 2, "O2": 4, "O3": 4}

STAGES = ("init", "layout", "routing", "post_routing", "finalize", "schedule")


class PipelineBuilder:
    """Compose a staged compilation pipeline for one (target, options) pair.

    The constructor populates every stage according to the options' preset level and the
    routing method's :class:`~repro.transpiler.registry.RoutingPlan`; callers may then
    rewrite individual stages before building the pass manager::

        builder = PipelineBuilder(target, options)
        builder.override_stage("layout", [MyLayoutPass(target.coupling_map)])
        manager = builder.build()
    """

    STAGES = STAGES

    def __init__(self, target: Optional[Target] = None, options=None) -> None:
        from ..core.options import TranspileOptions

        self.target = target if target is not None else Target()
        self.options = options if options is not None else TranspileOptions()
        self.stages: Dict[str, List[ScheduleItem]] = {name: [] for name in STAGES}
        self._populate()

    # -- stage access --------------------------------------------------------

    def stage(self, name: str) -> List[ScheduleItem]:
        """The (mutable) schedule of one named stage."""
        self._check_stage(name)
        return self.stages[name]

    def override_stage(self, name: str, passes: Sequence[ScheduleItem]) -> "PipelineBuilder":
        """Replace a stage's schedule wholesale."""
        self._check_stage(name)
        self.stages[name] = list(passes)
        return self

    def _check_stage(self, name: str) -> None:
        if name not in self.stages:
            raise TranspilerError(f"unknown stage {name!r}; expected one of {STAGES}")

    @property
    def passes(self) -> List[ScheduleItem]:
        """The full flattened schedule, stages in declaration order."""
        return [item for name in STAGES for item in self.stages[name]]

    def build(self) -> PassManager:
        """Assemble a fresh :class:`PassManager` from the current stage contents."""
        return PassManager(self.passes)

    # -- noise-aware resolution ---------------------------------------------

    @property
    def noise_aware(self) -> bool:
        """Whether this pipeline routes on the noise-aware (HA) distance matrix.

        Explicit ``options.noise_aware`` always wins; level ``O3`` additionally opts in
        automatically when the target carries calibration data.
        """
        if self.options.noise_aware:
            return True
        return self.options.level == "O3" and self.target.has_calibration

    # -- stage population ----------------------------------------------------

    def _populate(self) -> None:
        options = self.options
        target = self.target
        method = get_routing(options.routing)

        if method.requires_coupling and not target.has_coupling:
            raise TranspilerError(
                f"routing method {method.name!r} requires a target with a coupling map"
            )
        if options.noise_aware and not target.has_calibration:
            raise TranspilerError("noise_aware routing requires a target with calibration data")
        if options.route_cost == "ns" and not target.has_calibration:
            raise TranspilerError(
                "route_cost='ns' requires a target with calibration data "
                "(gate durations set the SWAP costs)"
            )
        if options.schedule is not None and not target.has_calibration:
            raise TranspilerError(
                f"schedule={options.schedule!r} requires a target with calibration data "
                "(gate durations set the time slots)"
            )

        distance_matrix: Optional[np.ndarray] = None
        if options.route_cost == "ns":
            # Nanosecond-cost routing replaces the distance matrix outright; when O3
            # auto-enables noise awareness, the explicit duration request wins.
            distance_matrix = target.duration_distance_matrix()
        elif self.noise_aware:
            distance_matrix = target.noise_distance_matrix()

        plan = method.factory(target, options)
        if (plan is not None) != method.requires_coupling:
            # A plan routes, and routing needs a coupling map; the registry's
            # ``supports_best_of`` (read just below) assumes as much.
            raise TranspilerError(
                f"routing method {method.name!r} returned "
                + ("a routing plan" if plan is not None else "no routing plan")
                + f" but is registered with requires_coupling={method.requires_coupling}"
            )
        #: The routing method's plan (``None`` for ``routing="none"``) and the distance
        #: matrix its routers score against (``None`` = the coupling map's hop count);
        #: :meth:`make_router` builds every router of the compile from these.
        self.plan: Optional[RoutingPlan] = plan
        self.distance_matrix = distance_matrix
        self.ensemble_trials = options.effective_best_of if method.supports_best_of else 1
        level = options.level
        optimize = level != "O0"
        final_basis = target.final_basis

        # init: decomposition, plus pre-routing cleanup above O0.
        if optimize:
            self.stages["init"] = [
                Decompose(keep_swaps=True),
                Optimize1qGates(output="u"),
                UnitarySynthesis(),
                CommutativeCancellation(),
                Optimize1qGates(output="u"),
                RemoveIdentities(),
                CheckRoutable(),
            ]
        else:
            self.stages["init"] = [Decompose(keep_swaps=True), CheckRoutable()]

        # layout + routing: contributed by the routing method's plan (None = no routing).
        if plan is not None:
            self._apply_routing_plan(plan)
            lowering = SwapLowering(use_labels=plan.use_swap_labels)
        else:
            lowering = SwapLowering()

        # post_routing: lower SWAPs, then the re-synthesis/cancellation loop above O0.
        self.stages["post_routing"] = [lowering]
        if optimize:
            self.stages["post_routing"] += [
                FixedPoint(
                    [UnitarySynthesis(), CommutativeCancellation()],
                    max_iterations=LEVEL_FIXED_POINT_ITERATIONS[level],
                ),
                Optimize1qGates(output=final_basis),
                RemoveIdentities(),
            ]

        # finalize: verify the routed circuit respects the device.
        if plan is not None and options.check:
            self.stages["finalize"] = [CheckMap(target.coupling_map)]

        # schedule: optional lowering to a timed schedule (analysis only — the DAG,
        # and therefore every golden hash, is identical whether or not this runs).
        if options.schedule is not None:
            # Imported lazily: the schedule pass depends on the transpiler package,
            # which would cycle if pulled in at module import time.
            from ..schedule.passes import ScheduleAnalysis

            self.stages["schedule"] = [
                ScheduleAnalysis(target.calibration, options.schedule)
            ]

    def make_router(self, seed: Optional[int], *, layout: bool = False) -> SabreSwapRouter:
        """A fresh router of this compile's routing method, seeded with ``seed``.

        The one place a router is configured: the layout sweeps (``layout=True``), the
        routing pass, every ensemble trial and :func:`repro.core.stream.transpile_stream`
        all build theirs here.  The plan's ``router_kwargs`` are joined by the seed, the
        distance matrix and, except for layout sweeps (which keep the router's default
        lookahead), the options' ``extended_set_size``/``extended_set_weight``.
        """
        kwargs = dict(self.plan.router_kwargs)
        if not layout:
            kwargs["extended_set_size"] = self.options.extended_set_size
            kwargs["extended_set_weight"] = self.options.extended_set_weight
        return self.plan.router_cls(
            self.target.coupling_map, seed=seed, distance_matrix=self.distance_matrix, **kwargs
        )

    def _apply_routing_plan(self, plan: RoutingPlan) -> None:
        options = self.options
        if self.ensemble_trials > 1:
            # Best-of-N: one combined pass runs layout selection AND routing per
            # trial (the layout refinement is seed-dependent, so it must vary per
            # trial), keeping the winner by the two-qubit/depth/noise estimators.
            from .ensemble import EnsembleRouting

            self.stages["layout"] = []
            self.stages["routing"] = [
                EnsembleRouting(
                    self.make_router,
                    num_trials=self.ensemble_trials,
                    seed=options.seed,
                    layout_iterations=options.layout_iterations,
                    noise_aware=self.noise_aware,
                ),
                *plan.post_routing,
            ]
            return
        self.stages["layout"] = [
            SabreLayoutSelection(
                self.make_router(options.seed, layout=True),
                iterations=options.layout_iterations,
            )
        ]
        self.stages["routing"] = [SabreRouting(self.make_router(options.seed)), *plan.post_routing]
