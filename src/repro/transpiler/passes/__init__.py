"""Transpiler passes."""

from .basis import CheckRoutable, Decompose
from .check_map import CheckMap, coupling_violations
from .collect_2q import Collect2qBlocks, TwoQubitBlock
from .commutation import (
    CommutationAnalysis,
    CommutativeCancellation,
    gates_commute,
    refresh_commutation_wires,
)
from .layout import ApplyLayout, Layout, SetLayout, TrivialLayout
from .optimize_1q import Optimize1qGates, RemoveIdentities
from .sabre import RoutingResult, SabreLayoutSelection, SabreRouting, SabreSwapRouter
from .swap_lowering import SwapLowering, lower_swap, swap_orientation
from .unitary_synthesis import UnitarySynthesis, block_matrix

__all__ = [
    "CheckRoutable",
    "Decompose",
    "CheckMap",
    "coupling_violations",
    "Collect2qBlocks",
    "TwoQubitBlock",
    "CommutationAnalysis",
    "CommutativeCancellation",
    "gates_commute",
    "refresh_commutation_wires",
    "ApplyLayout",
    "Layout",
    "SetLayout",
    "TrivialLayout",
    "Optimize1qGates",
    "RemoveIdentities",
    "RoutingResult",
    "SabreLayoutSelection",
    "SabreRouting",
    "SabreSwapRouter",
    "SwapLowering",
    "lower_swap",
    "swap_orientation",
    "UnitarySynthesis",
    "block_matrix",
]
