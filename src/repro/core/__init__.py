"""EdgeMM core: system configuration, performance simulator and driver."""

from .config import (
    PruningRuntimeConfig,
    SystemConfig,
    default_system,
    homo_cc_system,
    homo_mc_system,
    scaled_system,
)
from .metrics import PhaseResult, WorkloadResult, geometric_mean_speedup
from .simulator import CacheInfo, OpExecution, PerformanceSimulator, PoolCostParams
from .batch import (
    BatchCostEngine,
    BatchWorkloadResult,
    DesignGrid,
    OpTable,
    batch_run_request,
    compile_workload,
)
from .mapping import MappingChoice, MappingDecision, MappingExplorer
from .pipeline import PipelineModel, PipelinePoint
from .edgemm import EdgeMM, PruningCalibration

__all__ = [
    "PruningRuntimeConfig",
    "SystemConfig",
    "default_system",
    "homo_cc_system",
    "homo_mc_system",
    "scaled_system",
    "PhaseResult",
    "WorkloadResult",
    "geometric_mean_speedup",
    "CacheInfo",
    "OpExecution",
    "PerformanceSimulator",
    "PoolCostParams",
    "BatchCostEngine",
    "BatchWorkloadResult",
    "DesignGrid",
    "OpTable",
    "batch_run_request",
    "compile_workload",
    "MappingChoice",
    "MappingDecision",
    "MappingExplorer",
    "PipelineModel",
    "PipelinePoint",
    "EdgeMM",
    "PruningCalibration",
]
