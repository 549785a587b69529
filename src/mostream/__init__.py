"""Streaming multi-objective clustering with a bounded-memory tree synopsis."""

from .core import ClusteringSolution, ObjectiveVector, StreamConfig, WindowBatch
from .engine import EngineState, FinalSelection, WindowReport, run_stream
from .objectives import ParetoArchive

__all__ = [
    "ClusteringSolution",
    "EngineState",
    "FinalSelection",
    "ObjectiveVector",
    "ParetoArchive",
    "StreamConfig",
    "WindowBatch",
    "WindowReport",
    "run_stream",
]
