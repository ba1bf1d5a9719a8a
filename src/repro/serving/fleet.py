"""Multi-chip fleet serving: a load balancer in front of N EdgeMM chips.

A deployment serving heavy traffic runs a fleet of EdgeMM chips behind a
dispatcher.  :class:`FleetSimulator` partitions an open-loop trace across
single-chip :class:`~repro.serving.queue.ContinuousBatchingSimulator`
instances and merges the per-chip records into one fleet-wide report.
The chips are identical, so they run on one
:class:`~repro.core.simulator.PerformanceSimulator` and price every
serving cost once, in its one :class:`~repro.serving.queue.ChipCosts`
memo.

A static fleet runs ``n_chips`` chips under one of two dispatch policies:

* ``round_robin`` — requests go to chips cyclically, the stateless default;
* ``least_loaded`` — each request goes to the chip whose *estimated*
  completion horizon is earliest, where the estimate is the chip's current
  horizon plus a batch-1 cost estimate of the request (prefill + decode).
  This is a dispatcher-side estimate, as a real front-end would compute —
  the dispatcher does not look inside the chips' queues.

Given an :class:`~repro.serving.autoscale.AutoscalerConfig`
(``FleetSimulator(model, autoscaler=...)``), the fleet provisions
``autoscaler.max_chips`` chips under least-loaded placement and an
SLO-aware control loop grows and shrinks the prefix of them that
receives requests (see :mod:`repro.serving.autoscale`).

Every run drives the fleet's one era controller
(:func:`~repro.serving.controllers.controller_for`), whose fault schedule
is empty unless the caller passes one (see :mod:`repro.serving.faults`),
and returns one :class:`FleetResult`, whatever the fleet kind and the
runtime: a static fleet's reports no rejections and no scaling events,
and its ``n_chips`` as its final and peak size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..core.batch import ServiceTimeBoundsPricer
from ..core.simulator import PerformanceSimulator
from ..models.mllm import MLLMConfig
from .metrics import RequestRecord, ServingReport, empty_report, summarize
from .queue import ContinuousBatchingSimulator, ServingRequest, ServingResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .autoscale import AutoscalerConfig, ScalingEvent
    from .faults import FaultEvent

POLICIES: Tuple[str, ...] = ("round_robin", "least_loaded")

#: Execution planes of :meth:`FleetSimulator.run`: ``"batch"`` drives
#: the controller in a plain in-process loop, ``"live"`` drives the same
#: controller through the asyncio actor runtime
#: (:mod:`repro.serving.runtime`).  Results are bit-identical.
RUNTIMES: Tuple[str, ...] = ("batch", "live")


@dataclass(frozen=True)
class FleetResult:
    """Outcome of a fleet simulation, static or autoscaled.

    ``records`` cover the admitted requests and carry the caller's
    request ids and *true* arrivals, even when admission control delayed
    dispatch; ``per_chip`` is the raw chip-level view, whose records
    carry the synthetic ids and admission-delayed arrivals the chips
    simulated (see :mod:`repro.serving.controllers`).  ``assignments``
    holds each request's chip by trace position, ``-1`` for a rejected
    one.  ``final_chips`` is the active fleet size at the end of the run
    (a static fleet's ``n_chips``), ``events`` the autoscaler's scaling
    decisions and ``rejected_ids`` the arrivals its admission control
    dropped (both empty on a static fleet).  ``fault_events`` is the
    applied schedule; ``redispatched_ids`` and ``aborted_ids`` account
    for the requests its ``chip_down`` events displaced (all three are
    empty on a fault-free run).
    """

    records: Tuple[RequestRecord, ...]
    per_chip: Tuple[ServingResult, ...]
    assignments: Tuple[int, ...]
    final_chips: int
    fault_events: Tuple["FaultEvent", ...] = ()
    redispatched_ids: Tuple[int, ...] = ()
    aborted_ids: Tuple[int, ...] = ()
    rejected_ids: Tuple[int, ...] = ()
    events: Tuple["ScalingEvent", ...] = ()

    @property
    def report(self) -> ServingReport:
        """Report over admitted requests (all-zero if none was admitted)."""
        if not self.records:
            return empty_report()
        return summarize(self.records)

    @property
    def peak_chips(self) -> int:
        """Largest active fleet size the run ever reached."""
        peak = max((event.n_chips_after for event in self.events), default=0)
        return max(peak, self.final_chips)

    @property
    def n_rejected(self) -> int:
        """Number of arrivals admission control rejected outright."""
        return len(self.rejected_ids)

    @property
    def rejection_rate(self) -> float:
        """Rejected fraction of all arrivals (0.0 on an empty trace)."""
        total = len(self.records) + self.n_rejected
        if total == 0:
            return 0.0
        return self.n_rejected / total

    @property
    def n_scale_ups(self) -> int:
        """Number of grow decisions the autoscaler took."""
        return sum(1 for event in self.events if event.direction == "up")

    @property
    def n_scale_downs(self) -> int:
        """Number of drain decisions the autoscaler took."""
        return sum(1 for event in self.events if event.direction == "down")

    @property
    def requests_per_chip(self) -> Tuple[int, ...]:
        """Admitted-request count per chip, indexed by chip id."""
        counts = [0] * len(self.per_chip)
        for chip_id in self.assignments:
            if chip_id >= 0:
                counts[chip_id] += 1
        return tuple(counts)


class FleetSimulator:
    """Dispatches a trace across a fleet of identical EdgeMM chips.

    A static fleet runs ``n_chips`` chips (default 2) under ``policy``
    (default ``"round_robin"``, see :data:`POLICIES`).  Given an
    ``autoscaler``, the fleet runs ``autoscaler.max_chips`` chips under
    least-loaded placement, of which the controller keeps an active
    prefix; ``n_chips`` or ``policy`` passed alongside it raise
    ``ValueError``.  Every chip runs on the fleet's one ``simulator``
    (default ``PerformanceSimulator()``, the default EdgeMM system) and
    so reads one :class:`~repro.serving.queue.ChipCosts` memo, which
    service-time precomputation seeds once.  ``engine`` selects every
    chip's decode-loop implementation (see
    :data:`repro.serving.queue.ENGINES`).
    """

    def __init__(
        self,
        model: MLLMConfig,
        *,
        n_chips: Optional[int] = None,
        policy: Optional[str] = None,
        autoscaler: Optional["AutoscalerConfig"] = None,
        simulator: Optional[PerformanceSimulator] = None,
        max_batch_size: int = 8,
        cc_bandwidth_fraction: float = 0.5,
        context_bucket: int = 32,
        engine: str = "wave",
    ) -> None:
        if autoscaler is not None:
            for name, value in (("n_chips", n_chips), ("policy", policy)):
                if value is not None:
                    raise ValueError(
                        f"{name} cannot be set on an autoscaled fleet: it "
                        "runs autoscaler.max_chips chips least-loaded"
                    )
            n_chips, policy = autoscaler.max_chips, "least_loaded"
        n_chips = 2 if n_chips is None else n_chips
        policy = "round_robin" if policy is None else policy
        if n_chips < 1:
            raise ValueError("n_chips must be >= 1")
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        self.model = model
        self.n_chips = n_chips
        self.policy = policy
        self.autoscaler = autoscaler
        self.cc_bandwidth_fraction = cc_bandwidth_fraction
        self.simulator = (
            simulator if simulator is not None else PerformanceSimulator()
        )
        self.chips: List[ContinuousBatchingSimulator] = [
            ContinuousBatchingSimulator(
                self.simulator,
                model,
                max_batch_size=max_batch_size,
                cc_bandwidth_fraction=cc_bandwidth_fraction,
                context_bucket=context_bucket,
                chip_id=chip_id,
                engine=engine,
            )
            for chip_id in range(n_chips)
        ]

    # ------------------------------------------------------------------
    # Service-time precomputation (batch engine)
    # ------------------------------------------------------------------
    def precompute_service_times(self, trace: Sequence[ServingRequest]) -> None:
        """Seed the fleet's cost memo with the trace's costs in one grid pass.

        Every chip reads the one :class:`~repro.serving.queue.ChipCosts`
        memo of the fleet's simulator.  When it lacks the CC-stage latency
        of a request shape or the stream pair of a decode bucket the
        trace reaches (:meth:`~repro.serving.queue.ChipCosts.lacks`), one
        :meth:`~repro.core.batch.ServiceTimeBoundsPricer.seeds` call
        prices the trace's costs instead of deriving them lazily through
        the scalar simulator.  Seeded values are the floats the scalar
        path computes, so traces replay unchanged; a fleet whose memo
        holds every cost already (e.g. a planner design's later fleets)
        builds no pricer.
        """
        costs = self.chips[0].costs
        if not costs.lacks(trace):
            return
        pricer = ServiceTimeBoundsPricer(
            self.model,
            [request.request for request in trace],
            cc_bandwidth_fraction=self.cc_bandwidth_fraction,
            context_bucket=costs.decode.context_bucket,
        )
        [seeds] = pricer.seeds([self.simulator.system])
        costs.seed(*seeds)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatched(self, trace: Sequence[ServingRequest], **kwargs):
        """The fleet's controller, fed every arrival in canonical order."""
        # Imported lazily: the controllers build on this module.
        from .controllers import controller_for, sorted_order

        controller = controller_for(self, trace, **kwargs)
        on_arrival = controller.on_arrival
        for index in sorted_order(trace):
            on_arrival(index, trace[index])
        return controller

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def run(
        self,
        trace: Sequence[ServingRequest],
        *,
        faults=None,
        priorities: Optional[Sequence[float]] = None,
        runtime: str = "batch",
    ) -> FleetResult:
        """Dispatch the trace, simulate every chip and merge the records.

        The one run loop of every fleet kind: it feeds the fleet's
        controller (:func:`~repro.serving.controllers.controller_for`) every
        arrival in canonical order, applies the trailing fault events,
        runs the closing engine jobs inline (``job.run()``) and collects
        the :class:`FleetResult`.  ``faults`` is an optional
        :class:`~repro.serving.faults.FaultSchedule` (``None`` plays the
        empty one); ``priorities`` carries one positive weight per request,
        ordering post-fault re-dispatch and weighting an autoscaled fleet's
        admission depth.  ``runtime`` selects the execution plane (see
        :data:`RUNTIMES`): ``"live"`` streams the
        trace through the asyncio actor runtime, producing the
        bit-identical result.
        """
        if runtime not in RUNTIMES:
            raise ValueError(
                f"runtime must be one of {RUNTIMES}, got {runtime!r}"
            )
        if runtime == "live":
            # Imported lazily: the runtime package builds on this module.
            from .runtime import run_live

            return run_live(
                self, trace, faults=faults, priorities=priorities
            ).result
        controller = self._dispatched(
            trace, faults=faults, priorities=priorities
        )
        controller.finish_events()
        return controller.collect(
            {job.chip_id: job.run() for job in controller.final_jobs()}
        )
