"""The paper's contribution: NASSC optimization-aware routing and the compile pipelines."""

from .estimators import OptimizationEstimator, SwapEstimate
from .nassc import NASSCConfig, NASSCSwapRouter
from .options import LEVEL_DESCRIPTIONS, OPTIMIZATION_LEVELS, TranspileOptions, normalize_level
from .pipeline import (
    PIPELINE_VERSION,
    TranspileResult,
    compare_routings,
    optimize_logical,
    transpile,
)
from .single_qubit_motion import CommuteSingleQubitsThroughSwap
from .stream import transpile_stream, stream_to

__all__ = [
    "OptimizationEstimator",
    "SwapEstimate",
    "NASSCConfig",
    "NASSCSwapRouter",
    "LEVEL_DESCRIPTIONS",
    "OPTIMIZATION_LEVELS",
    "TranspileOptions",
    "normalize_level",
    "PIPELINE_VERSION",
    "TranspileResult",
    "compare_routings",
    "optimize_logical",
    "transpile",
    "transpile_stream",
    "stream_to",
    "CommuteSingleQubitsThroughSwap",
]
