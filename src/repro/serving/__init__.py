"""Traffic-scale serving simulation on EdgeMM chips.

The serving layer turns the single-request performance simulator into a
deployment study: open-loop arrival processes drive a continuous-batching
queue on one chip (:mod:`repro.serving.queue`) or a load-balanced fleet of
chips (:class:`~repro.serving.fleet.FleetSimulator`) — optionally
autoscaled against an SLO with admission control, given an
:class:`~repro.serving.autoscale.AutoscalerConfig` — and per-request
timestamp records fold into latency/TTFT percentiles and aggregate
throughput (:mod:`repro.serving.metrics`).  Every fleet run is driven by
the era controller of its fleet kind (:mod:`repro.serving.controllers`),
which also replays deterministic fault schedules
(:mod:`repro.serving.faults`: chip outages, DRAM degradation) and
weighted tenant priorities through the same engines.  The live control
plane (:mod:`repro.serving.runtime`) streams the same traces through
asyncio actors — driving the same stepwise controllers — with
checkpoint/restore, byte-identical to the batch path.
"""

from .arrival import (
    DIURNAL_HOURLY_MULTIPLIERS,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    RequestSampler,
    TraceArrivals,
)
from .autoscale import AutoscalerConfig, ScalingEvent
from .controllers import normalize_priorities
from .faults import (
    DRAIN_POLICIES,
    FAULT_KINDS,
    FaultEvent,
    FaultRecovery,
    FaultSchedule,
    fault_recovery,
)
from .fleet import RUNTIMES, FleetResult, FleetSimulator
from .metrics import (
    PercentileStats,
    RequestRecord,
    ServingReport,
    empty_report,
    format_report,
    percentile,
    summarize,
)
from .engine import run_wave
from .queue import (
    ENGINES,
    ChipCosts,
    ContinuousBatchingSimulator,
    ServingRequest,
    ServingResult,
    build_trace,
)
from .runtime import Checkpoint, run_live

__all__ = [
    "BurstyArrivals",
    "DIURNAL_HOURLY_MULTIPLIERS",
    "DiurnalArrivals",
    "PoissonArrivals",
    "RequestSampler",
    "TraceArrivals",
    "AutoscalerConfig",
    "ScalingEvent",
    "DRAIN_POLICIES",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultRecovery",
    "FaultSchedule",
    "fault_recovery",
    "normalize_priorities",
    "FleetResult",
    "FleetSimulator",
    "PercentileStats",
    "RequestRecord",
    "ServingReport",
    "empty_report",
    "format_report",
    "percentile",
    "summarize",
    "ChipCosts",
    "ContinuousBatchingSimulator",
    "ENGINES",
    "ServingRequest",
    "ServingResult",
    "build_trace",
    "run_wave",
    "RUNTIMES",
    "Checkpoint",
    "run_live",
]
