"""Transpiler framework: DAG-native pass manager, flow control and the standard pass library."""

from .passmanager import (
    ANALYSIS_KEYS,
    AnalysisPass,
    FixedPoint,
    FlowController,
    PassManager,
    PropertySet,
    TransformationPass,
    TranspilerPass,
)
from .registry import (
    RoutingMethod,
    RoutingPlan,
    available_routings,
    get_routing,
    register_routing,
    registered_methods,
    routing_registered,
    unregister_routing,
)
from .builder import LEVEL_FIXED_POINT_ITERATIONS, PipelineBuilder
from . import passes

__all__ = [
    "RoutingMethod",
    "RoutingPlan",
    "available_routings",
    "get_routing",
    "register_routing",
    "registered_methods",
    "routing_registered",
    "unregister_routing",
    "LEVEL_FIXED_POINT_ITERATIONS",
    "PipelineBuilder",
    "ANALYSIS_KEYS",
    "AnalysisPass",
    "FixedPoint",
    "FlowController",
    "PassManager",
    "PropertySet",
    "TransformationPass",
    "TranspilerPass",
    "passes",
]
