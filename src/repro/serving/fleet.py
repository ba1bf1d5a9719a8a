"""Multi-chip fleet serving: a load balancer in front of N EdgeMM chips.

A deployment serving heavy traffic runs a fleet of EdgeMM chips behind a
dispatcher.  :class:`FleetSimulator` partitions an open-loop trace across
``n_chips`` single-chip :class:`~repro.serving.queue.ContinuousBatchingSimulator`
instances according to a load-balancing policy and merges the per-chip
records into one fleet-wide report.

Two dispatch policies are provided:

* ``round_robin`` — requests go to chips cyclically, the stateless default;
* ``least_loaded`` — each request goes to the chip whose *estimated*
  completion horizon is earliest, where the estimate is the chip's current
  horizon plus a batch-1 cost estimate of the request (prefill + decode).
  This is a dispatcher-side estimate, as a real front-end would compute —
  the dispatcher does not look inside the chips' queues.

Every run drives the fleet's one controller,
:class:`~repro.serving.faults.FaultFleetController`, whose fault schedule
is empty unless the caller passes one (see :mod:`repro.serving.faults`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.batch import ServiceTimeBoundsPricer
from ..core.simulator import PerformanceSimulator
from ..models.mllm import InferenceRequest, MLLMConfig
from .dispatch import RUNTIMES, make_controller, sorted_order
from .metrics import RequestRecord, ServingReport, summarize
from .queue import ContinuousBatchingSimulator, ServingRequest, ServingResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .autoscale import AutoscaleResult
    from .faults import FaultEvent

POLICIES: Tuple[str, ...] = ("round_robin", "least_loaded")


@dataclass(frozen=True)
class FleetResult:
    """Outcome of a fleet simulation: merged records plus per-chip results.

    ``records`` carry the caller's request ids and arrivals; ``per_chip``
    is the raw chip-level view, whose records carry the synthetic ids
    the chips simulated (see :mod:`repro.serving.faults`).
    ``fault_events`` is the applied schedule; ``redispatched_ids`` and
    ``aborted_ids`` account for the requests its ``chip_down`` events
    displaced (all three are empty on a fault-free run).
    """

    records: Tuple[RequestRecord, ...]
    per_chip: Tuple[ServingResult, ...]
    assignments: Tuple[int, ...]
    fault_events: Tuple["FaultEvent", ...] = ()
    redispatched_ids: Tuple[int, ...] = ()
    aborted_ids: Tuple[int, ...] = ()

    @property
    def report(self) -> ServingReport:
        """Aggregate statistics over the merged fleet-wide records."""
        return summarize(self.records)

    @property
    def requests_per_chip(self) -> Tuple[int, ...]:
        """Dispatched-request count per chip, indexed by chip id."""
        counts = [0] * len(self.per_chip)
        for chip_id in self.assignments:
            counts[chip_id] += 1
        return tuple(counts)


class FleetSimulator:
    """Dispatches a trace across a fleet of identical EdgeMM chips.

    ``engine`` selects every chip's decode-loop implementation (see
    :data:`repro.serving.queue.ENGINES`).
    """

    def __init__(
        self,
        model: MLLMConfig,
        *,
        n_chips: int = 2,
        policy: str = "round_robin",
        simulator_factory: Optional[Callable[[], PerformanceSimulator]] = None,
        max_batch_size: int = 8,
        cc_bandwidth_fraction: float = 0.5,
        context_bucket: int = 32,
        precompute: bool = True,
        engine: str = "wave",
    ) -> None:
        if n_chips < 1:
            raise ValueError("n_chips must be >= 1")
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        self.model = model
        self.n_chips = n_chips
        self.policy = policy
        self.precompute = precompute
        self.cc_bandwidth_fraction = cc_bandwidth_fraction
        self.engine = engine
        self._estimate_cache: Dict[Tuple[int, int, int, int], float] = {}
        factory = simulator_factory or PerformanceSimulator
        self.chips: List[ContinuousBatchingSimulator] = [
            ContinuousBatchingSimulator(
                factory(),
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
    def _chip_groups(self) -> List[List[ContinuousBatchingSimulator]]:
        """Chips grouped by system equality (pools follow the system)."""
        groups: List[List[ContinuousBatchingSimulator]] = []
        for chip in self.chips:
            for group in groups:
                if chip.simulator.system == group[0].simulator.system:
                    group.append(chip)
                    break
            else:
                groups.append([chip])
        return groups

    def precompute_service_times(self, trace: Sequence[ServingRequest]) -> None:
        """Seed every chip with the trace's serving costs in one grid pass.

        Chips group by system equality; every group lacking the CC-stage
        latency of a request shape or the cost triple of a decode bucket the
        trace reaches is priced by one
        :meth:`~repro.core.batch.ServiceTimeBoundsPricer.seeds` call instead
        of deriving them lazily through the scalar simulator.  Seeded values
        are the floats the scalar path computes, so traces replay unchanged;
        a fleet whose chips hold every cost already (e.g. from the planner's
        warm cache) builds no table.
        """
        if not len(trace):
            return
        pricer = ServiceTimeBoundsPricer(
            self.model,
            [request.request for request in trace],
            cc_bandwidth_fraction=self.cc_bandwidth_fraction,
            context_bucket=self.chips[0].cost_model.context_bucket,
        )
        lacking = [
            group
            for group in self._chip_groups()
            if not all(map(group[0].has_cc_latency, pricer.cc_shapes))
            or not all(map(group[0].cost_model.has_bucket_cost, pricer.buckets))
        ]
        seeds = pricer.seeds([group[0].simulator.system for group in lacking])
        for group, (cc_latencies, bucket_costs) in zip(lacking, seeds):
            for chip in group:
                chip.seed_cc_latencies(cc_latencies)
                chip.cost_model.seed_bucket_costs(bucket_costs)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _estimate_cost_s(self, chip: ContinuousBatchingSimulator,
                         request: InferenceRequest) -> float:
        """Dispatcher-side batch-1 service-time estimate of one request.

        Memoized per (chip, request shape): least-loaded dispatch probes a
        chip's estimate once per request, and a large trace repeats a small
        set of shapes, so without the memo every probe would redundantly
        re-query the cost model.  The cached float is exactly the one a
        fresh computation returns (a pure function of the chip's own
        memoized latencies), so assignments are trace-identical.
        """
        key = (
            chip.chip_id,
            request.images,
            request.prompt_text_tokens,
            request.output_tokens,
        )
        cached = self._estimate_cache.get(key)
        if cached is not None:
            return cached
        prefill = chip.cc_latency_s(request)
        context = self.model.prompt_tokens(request)
        per_token = chip.cost_model.step_latency_s([context])
        cost = prefill + per_token * request.output_tokens
        self._estimate_cache[key] = cost
        return cost

    @property
    def controller_class(self) -> type:
        """The controller class that drives this fleet's runs."""
        # Imported lazily: faults builds on this module.
        from .faults import FaultFleetController

        return FaultFleetController

    def _dispatched(self, trace: Sequence[ServingRequest], **kwargs):
        """The fleet's controller, fed every arrival in canonical order."""
        controller = make_controller(self, trace, **kwargs)
        on_arrival = controller.on_arrival
        for index in sorted_order(trace):
            on_arrival(index, trace[index])
        return controller

    def assign(self, trace: Sequence[ServingRequest]) -> List[int]:
        """Chip index for every request of the trace, in trace order.

        Drives the fleet's controller exactly as :meth:`run` does, without
        simulating the chips; ``-1`` marks a request an autoscaled fleet's
        admission control rejected.  Assignments are positional, so traces
        carrying duplicate (caller-supplied) request ids still dispatch
        every request.
        """
        return list(self._dispatched(trace).ledger.assignments)

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
    ) -> Union[FleetResult, "AutoscaleResult"]:
        """Dispatch the trace, simulate every chip and merge the records.

        The one run loop of every fleet kind: it feeds the fleet's
        controller (:func:`~repro.serving.dispatch.make_controller`) every
        arrival in canonical order, applies the trailing fault events,
        runs the closing engine jobs inline (``job.run()``) and collects
        the :class:`FleetResult` — an
        :class:`~repro.serving.autoscale.AutoscaleResult` on an autoscaled
        fleet.  ``faults`` is an optional
        :class:`~repro.serving.faults.FaultSchedule` (``None`` plays the
        empty one); ``priorities`` carries one positive weight per request,
        ordering post-fault re-dispatch and weighting an autoscaled fleet's
        admission depth.  ``runtime`` selects the execution plane (see
        :data:`repro.serving.dispatch.RUNTIMES`): ``"live"`` streams the
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
