"""Compilation of a :class:`~repro.scenarios.spec.ScenarioSpec` to a trace.

Compiling a scenario is pure and deterministic: every random stream
(arrival process, per-component shape samplers, the mix-selection stream)
is seeded from the spec's content hash, so the same spec compiles to the
bit-identical :class:`~repro.serving.queue.ServingRequest` trace in every
process.  The compiled trace remembers which mix component produced each
request, which the reports use for per-component accounting.

One draw loop, :func:`_draws`, yields every slot's component, arrival
and shape from persistent generators, and each component's shape stream
is drawn only for the slots that component fills.
:func:`compile_scenario` builds the trace from it, with one
:class:`~repro.models.mllm.InferenceRequest` per distinct shape shared
by every request of that shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..models.mllm import InferenceRequest
from ..serving.arrival import (
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    RequestSampler,
    TraceArrivals,
)
from ..serving.faults import FaultEvent, FaultSchedule
from ..serving.queue import ServingRequest
from ..serving.runtime.actors import DEFAULT_BATCH_SIZE
from ..serving.runtime.chaos import ChaosSchedule, generate_chaos_schedule
from .spec import ArrivalSpec, ScenarioSpec, WorkloadComponent

ArrivalProcess = Union[
    PoissonArrivals, BurstyArrivals, DiurnalArrivals, TraceArrivals
]


@dataclass(frozen=True)
class CompiledScenario:
    """A scenario lowered to an executable serving trace."""

    spec: ScenarioSpec
    trace: Tuple[ServingRequest, ...]
    #: Mix-component name of every request, in trace order.
    components: Tuple[str, ...]
    #: Concrete fault schedule (``None`` unless the spec carries a
    #: ``faults`` block); derived from the spec hash, see
    #: :func:`compile_fault_schedule`.
    faults: Optional[FaultSchedule] = None
    #: Concrete runtime-chaos schedule (``None`` unless the spec carries
    #: a ``chaos`` block); derived from the spec hash, see
    #: :func:`compile_chaos_schedule`.  Consumed only by the live
    #: runtime — the batch plane ignores it by design.
    chaos: Optional[ChaosSchedule] = None

    @property
    def component_counts(self) -> Dict[str, int]:
        """Requests per mix component, keyed by component name."""
        counts: Dict[str, int] = {
            component.name: 0 for component in self.spec.mix
        }
        for name in self.components:
            counts[name] += 1
        return counts

    @property
    def unique_shapes(self) -> Tuple[InferenceRequest, ...]:
        """The distinct request shapes of the trace, in first-seen order."""
        seen: Dict[InferenceRequest, None] = {}
        for request in self.trace:
            seen.setdefault(request.request, None)
        return tuple(seen)

    @property
    def priorities(self) -> Optional[Tuple[float, ...]]:
        """Per-request admission priorities, or ``None`` when uniform.

        ``None`` (every component at the default priority 1.0) keeps the
        serving path on its priority-free branch, so priority-free specs
        reproduce the historical results exactly.
        """
        by_name = {
            component.name: component.priority for component in self.spec.mix
        }
        if all(priority == 1.0 for priority in by_name.values()):
            return None
        return tuple(by_name[name] for name in self.components)

    @property
    def tenants(self) -> Tuple[str, ...]:
        """Tenant class of every request, in trace order.

        Components without an explicit tenant bill to ``"default"``.
        """
        by_name = {
            component.name: component.tenant or "default"
            for component in self.spec.mix
        }
        return tuple(by_name[name] for name in self.components)


def build_arrival_process(
    arrival: ArrivalSpec, *, seed: int = 0
) -> ArrivalProcess:
    """Instantiate the process ``arrival`` describes, seeded with ``seed``."""
    if arrival.kind == "poisson":
        return PoissonArrivals(arrival.rate_rps, seed=seed)
    if arrival.kind == "bursty":
        return BurstyArrivals(
            arrival.rate_rps,
            burst_multiplier=arrival.burst_multiplier,
            mean_calm_arrivals=arrival.mean_calm_arrivals,
            mean_burst_arrivals=arrival.mean_burst_arrivals,
            seed=seed,
        )
    if arrival.kind == "diurnal":
        return DiurnalArrivals(
            arrival.rate_rps, period_s=arrival.period_s, seed=seed
        )
    # ArrivalSpec validation guarantees times is present for "trace".
    return TraceArrivals(arrival.times or ())


def component_sampler(
    component: WorkloadComponent, *, seed: int
) -> RequestSampler:
    """The shape sampler of one mix ``component``, seeded with ``seed``."""
    return RequestSampler(
        images=component.images,
        prompt_token_range=component.prompt_token_range,
        output_token_choices=component.output_token_choices,
        output_token_weights=component.output_token_weights,
        seed=seed,
    )


def compile_fault_schedule(
    spec: ScenarioSpec, span_s: float
) -> FaultSchedule:
    """Lower a spec's fault plan to a concrete, time-ordered schedule.

    Targets and timestamps come from one ``random.Random`` stream seeded
    with ``spec.derive_seed("faults")`` — never from interpreter state —
    so the same spec draws the same schedule in every process (the
    cross-``PYTHONHASHSEED`` suite asserts it).  Each fault targets a
    distinct chip; fault times land in the spec's window fraction band of
    ``span_s`` (the trace's arrival span), and chip failures with an
    ``outage_s`` get a matching ``chip_up``.
    """
    plan = spec.faults
    if plan is None:
        return FaultSchedule(events=(), drain_policy="drain")
    n_chips = spec.fleet.provisioned_chips
    rng = random.Random(spec.derive_seed("faults"))
    lo, hi = plan.window
    targets = rng.sample(
        range(n_chips), plan.n_chip_failures + plan.n_dram_degrades
    )
    events: List[FaultEvent] = []
    for chip_id in targets[: plan.n_chip_failures]:
        time_s = (lo + rng.random() * (hi - lo)) * span_s
        events.append(
            FaultEvent(time_s=time_s, kind="chip_down", chip_id=chip_id)
        )
        if plan.outage_s is not None:
            events.append(
                FaultEvent(
                    time_s=time_s + plan.outage_s,
                    kind="chip_up",
                    chip_id=chip_id,
                )
            )
    for chip_id in targets[plan.n_chip_failures :]:
        time_s = (lo + rng.random() * (hi - lo)) * span_s
        events.append(
            FaultEvent(
                time_s=time_s,
                kind="dram_degrade",
                chip_id=chip_id,
                factor=plan.degrade_factor,
            )
        )
    events.sort(key=lambda event: (event.time_s, event.chip_id, event.kind))
    return FaultSchedule(
        events=tuple(events), drain_policy=plan.drain_policy
    )


def compile_chaos_schedule(
    spec: ScenarioSpec, *, seed: Optional[int] = None
) -> ChaosSchedule:
    """Lower a spec's chaos plan to a concrete runtime-fault schedule.

    Every ordinal and target comes from one ``random.Random`` stream
    seeded with ``spec.derive_seed("chaos")`` — the same spec draws the
    same schedule in every process, making a scenario's chaos part of
    its identity.  ``seed`` overrides that derivation (the CLI's
    ``--chaos-seed`` hook for exploring alternative draws of the same
    plan).  Chip-fault ordinals are bounded by the fleet size (every
    chip runs at least one closing shard) and stream-fault ordinals by
    the trace's arrival-batch count, so most events actually fire; ones
    whose ordinal never occurs are harmless no-ops.
    """
    plan = spec.chaos
    if plan is None:
        return ChaosSchedule()
    n_chips = spec.fleet.provisioned_chips
    n_batches = max(
        1, -(-spec.n_requests // DEFAULT_BATCH_SIZE)
    )
    return generate_chaos_schedule(
        spec.derive_seed("chaos") if seed is None else seed,
        n_chips=n_chips,
        n_batches=n_batches,
        n_crashes=plan.n_crashes,
        n_hangs=plan.n_hangs,
        n_drops=plan.n_drops,
        n_delays=plan.n_delays,
        n_supervisor_crashes=plan.n_supervisor_crashes,
        hang_shards=plan.hang_shards,
        delay_s=plan.delay_s,
    )


def _draws(spec: ScenarioSpec) -> Iterator[Tuple[str, float, Tuple[int, int, int]]]:
    """Every slot's ``(component name, arrival_s, shape)``, in trace order.

    The draw loop of :func:`compile_scenario`.  The arrival process,
    the mix-selection stream and each component's shape stream
    (:meth:`~repro.serving.arrival.RequestSampler.iter_shapes`) are
    persistent generators seeded from the spec hash.  A slot draws its
    component from the selection stream, its arrival, and the next shape
    of that component's own stream, so a component draws exactly the
    shapes of the slots it fills.
    """
    times = build_arrival_process(
        spec.arrival, seed=spec.derive_seed("arrival")
    ).iter_times()
    shapes: Dict[str, Iterator[Tuple[int, int, int]]] = {
        component.name: component_sampler(
            component, seed=spec.derive_seed(f"component:{component.name}")
        ).iter_shapes()
        for component in spec.mix
    }
    names = [component.name for component in spec.mix]
    single = len(names) == 1
    # ``choices`` turns weights into these cumulative weights on every
    # call; passing them draws the same component from the same random().
    cum_weights = list(accumulate(component.weight for component in spec.mix))
    selection = random.Random(spec.derive_seed("mix"))
    for _ in range(spec.n_requests):
        name = (
            names[0]
            if single
            else selection.choices(names, cum_weights=cum_weights)[0]
        )
        yield name, next(times), next(shapes[name])


def compile_scenario(spec: ScenarioSpec) -> CompiledScenario:
    """Lower a scenario spec to its serving trace.

    Arrival timestamps come from the spec's arrival process; request
    shapes interleave the mix components with spec-hash-derived seeds: a
    selection stream picks the component of every slot and each component
    contributes the next shape of its own seeded stream (see
    :func:`_draws`).  Requests of one shape share one
    :class:`~repro.models.mllm.InferenceRequest`.  Specs with a ``faults``
    block additionally compile their concrete
    :class:`~repro.serving.faults.FaultSchedule` against the trace's
    arrival span.
    """
    requests: Dict[Tuple[int, int, int], InferenceRequest] = {}
    trace: List[ServingRequest] = []
    chosen: List[str] = []
    for request_id, (name, arrival_s, shape) in enumerate(_draws(spec)):
        request = requests.get(shape)
        if request is None:
            request = requests[shape] = InferenceRequest(*shape)
        chosen.append(name)
        trace.append(
            ServingRequest(request_id=request_id, arrival_s=arrival_s, request=request)
        )
    faults = None
    if spec.faults is not None:
        faults = compile_fault_schedule(spec, trace[-1].arrival_s)
    chaos = None
    if spec.chaos is not None:
        chaos = compile_chaos_schedule(spec)
    return CompiledScenario(
        spec=spec,
        trace=tuple(trace),
        components=tuple(chosen),
        faults=faults,
        chaos=chaos,
    )
