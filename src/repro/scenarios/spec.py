"""Declarative serving-scenario specifications.

A :class:`ScenarioSpec` describes one deployment study end to end, as pure
data: the *workload mix* (weighted :class:`WorkloadComponent` entries —
text chat, multi-image prompts, video-frame streaming, long-context
summarization, or anything else expressible as a request-shape
distribution), the *arrival pattern* (:class:`ArrivalSpec`), the *fleet
topology* with optional SLO-aware autoscaling (:class:`FleetSpec` /
:class:`AutoscalerSpec`) and the *service-level objectives* the run is
judged against (:class:`SLOSpec`).

Specs serialize losslessly to JSON through the one field-driven codec of
:mod:`repro.codec` (``to_dict`` / ``from_dict`` and ``to_json`` /
``from_json``; the format and its :class:`~repro.codec.SpecError` paths
are described in the "Spec JSON" section of ``docs/scenarios.md``), and
the canonical JSON form is the *identity* of a scenario:
:meth:`ScenarioSpec.spec_hash` is its SHA-256, and every random seed used
while compiling the scenario is derived from that hash via
:meth:`ScenarioSpec.derive_seed`.
Deriving seeds from the content hash — never from Python's per-process
salted ``hash()`` or any global RNG state — is what makes a scenario
reproduce bit-identically across processes and machines.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from typing import Dict, Optional, Tuple

from ..codec import Spec, applies, for_kinds, when_set
from ..models.mllm import available_mllms
# ADMISSION_POLICIES is re-exported beside the spec's other value sets.
from ..serving.autoscale import ADMISSION_POLICIES, check_tuning
from ..serving.fleet import POLICIES

ARRIVAL_KINDS: Tuple[str, ...] = ("poisson", "bursty", "diurnal", "trace")
DRAIN_POLICIES: Tuple[str, ...] = ("drain", "abort")


@dataclass(frozen=True)
class WorkloadComponent(Spec):
    """One weighted slice of a scenario's workload mix.

    The shape parameters mirror :class:`~repro.serving.arrival.
    RequestSampler`; the component's sampler seed is derived from the
    owning spec's hash at compile time, so the component itself stays pure
    data.
    """

    name: str
    weight: float = 1.0
    images: int = 1
    prompt_token_range: Tuple[int, int] = (16, 64)
    output_token_choices: Tuple[int, ...] = (16, 32, 64, 128, 256)
    output_token_weights: Tuple[float, ...] = (0.3, 0.3, 0.25, 0.1, 0.05)
    #: Tenant class the component's requests bill to (``None`` = the
    #: implicit "default" tenant; emitted only when set, so tenant-free
    #: specs hash exactly as before the field existed).
    tenant: Optional[str] = when_set(None)
    #: Admission weight relative to the mix's other components; requests
    #: of a higher-priority component get a proportionally deeper
    #: admission queue and re-dispatch first after a chip loss.
    priority: float = when_set(1.0)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("component name must not be empty")
        if self.weight <= 0:
            raise ValueError(f"component {self.name!r}: weight must be positive")
        if self.priority <= 0:
            raise ValueError(f"component {self.name!r}: priority must be positive")
        if self.tenant is not None and not self.tenant:
            raise ValueError(f"component {self.name!r}: tenant must not be empty")
        if self.images < 0:
            raise ValueError(f"component {self.name!r}: images must be >= 0")
        lo, hi = self.prompt_token_range
        if lo <= 0 or hi < lo:
            raise ValueError(
                f"component {self.name!r}: prompt_token_range must be a "
                "positive (lo, hi)"
            )
        if len(self.output_token_choices) != len(self.output_token_weights):
            raise ValueError(
                f"component {self.name!r}: output choices and weights must "
                "have equal length"
            )
        if any(tokens <= 0 for tokens in self.output_token_choices):
            raise ValueError(
                f"component {self.name!r}: output token choices must be positive"
            )


@dataclass(frozen=True)
class ArrivalSpec(Spec):
    """The arrival process of a scenario (see :mod:`repro.serving.arrival`).

    ``kind`` selects the process; the rate/burst fields apply to the
    generated kinds, ``period_s`` is the day length of the ``diurnal``
    hour-of-day load curve, and ``times`` carries the explicit timestamps
    of a ``trace`` replay.
    """

    kind: str = "poisson"
    rate_rps: float = for_kinds("poisson", "bursty", "diurnal", default=2.0)
    burst_multiplier: float = for_kinds("bursty", default=8.0)
    mean_calm_arrivals: float = for_kinds("bursty", default=60.0)
    mean_burst_arrivals: float = for_kinds("bursty", default=20.0)
    period_s: float = for_kinds("diurnal", default=86400.0)
    times: Optional[Tuple[float, ...]] = for_kinds("trace", default=None)

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ValueError(
                f"arrival kind must be one of {ARRIVAL_KINDS}, got {self.kind!r}"
            )
        if self.kind == "trace":
            if not self.times:
                raise ValueError("a trace arrival spec needs explicit times")
            if any(t < 0 for t in self.times):
                raise ValueError("trace timestamps must be >= 0")
            if any(b < a for a, b in zip(self.times, self.times[1:])):
                raise ValueError("trace timestamps must be non-decreasing")
        else:
            if self.rate_rps <= 0:
                raise ValueError("rate_rps must be positive")
            if self.times is not None:
                raise ValueError("times only apply to trace arrivals")
            if self.kind == "diurnal" and self.period_s <= 0:
                raise ValueError("period_s must be positive")
            if self.kind == "bursty":
                # BurstyArrivals' own bounds, checked where a spec names them.
                for name in (
                    "burst_multiplier",
                    "mean_calm_arrivals",
                    "mean_burst_arrivals",
                ):
                    if getattr(self, name) < 1:
                        raise ValueError(f"{name} must be >= 1")
        # Fields that do not apply to the chosen kind must stay at their
        # defaults: `to_dict` omits them, so any other value would be
        # silently lost on a serialization round trip.
        self._require_defaults_for_unused_fields()

    def _require_defaults_for_unused_fields(self) -> None:
        for spec_field in fields(self):
            if not applies(spec_field, self.kind) and (
                getattr(self, spec_field.name) != spec_field.default
            ):
                raise ValueError(
                    f"{spec_field.name} does not apply to {self.kind!r} "
                    "arrivals (it would be lost on serialization)"
                )


@dataclass(frozen=True)
class AutoscalerSpec(Spec):
    """Knobs of the SLO-aware fleet autoscaler (pure data).

    The controller's TTFT target comes from the owning scenario's
    :class:`SLOSpec`; this spec carries the fleet bounds and the control-
    loop tuning.  See :class:`repro.serving.autoscale.AutoscalerConfig`
    for the runtime semantics of each field; both refuse out-of-range
    values through one :func:`~repro.serving.autoscale.check_tuning`.
    """

    min_chips: int = 1
    max_chips: int = 4
    window: int = 64
    min_observations: int = 16
    cooldown_s: float = 1.0
    scale_up_ratio: float = 1.0
    scale_down_ratio: float = 0.4
    max_queue_depth: int = 64
    admission: str = "queue"

    def __post_init__(self) -> None:
        check_tuning(self)


@dataclass(frozen=True)
class FleetSpec(Spec):
    """Fleet topology: the model served and the chips serving it.

    ``model`` must name a registered MLLM (any case), ``policy`` one of
    :data:`~repro.serving.fleet.POLICIES`, and ``cc_bandwidth_fraction``
    the CC stage's share of DRAM bandwidth, strictly inside (0, 1); the
    fleet and its chips would refuse the same values, but only when the
    scenario runs and without a spec path.
    """

    model: str = "sphinx-tiny"
    n_chips: int = 1
    policy: str = "least_loaded"
    max_batch_size: int = 8
    context_bucket: int = 32
    cc_bandwidth_fraction: float = 0.5
    autoscaler: Optional[AutoscalerSpec] = when_set(None)

    def __post_init__(self) -> None:
        if self.model.lower() not in available_mllms():
            raise ValueError(
                f"model must be a registered MLLM "
                f"({', '.join(available_mllms())}), got {self.model!r}"
            )
        if self.n_chips < 1:
            raise ValueError("n_chips must be >= 1")
        if self.policy not in POLICIES:
            raise ValueError(
                f"policy must be one of {POLICIES}, got {self.policy!r}"
            )
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.context_bucket < 1:
            raise ValueError("context_bucket must be >= 1")
        if not 0.0 < self.cc_bandwidth_fraction < 1.0:
            raise ValueError("cc_bandwidth_fraction must be in (0, 1)")

    @property
    def provisioned_chips(self) -> int:
        """Chips the fleet builds: ``autoscaler.max_chips`` if set, else ``n_chips``."""
        if self.autoscaler is not None:
            return self.autoscaler.max_chips
        return self.n_chips


@dataclass(frozen=True)
class SLOSpec(Spec):
    """Service-level objectives a scenario is judged against.

    Every field is optional: ``None`` means "no objective for this metric".
    """

    ttft_p99_s: Optional[float] = when_set(None)
    latency_p95_s: Optional[float] = when_set(None)
    queue_wait_p99_s: Optional[float] = when_set(None)

    def __post_init__(self) -> None:
        for label, value in self.targets().items():
            if value <= 0:
                raise ValueError(f"SLO target {label} must be positive")

    def targets(self) -> Dict[str, float]:
        """The non-``None`` objectives, keyed by metric name."""
        targets: Dict[str, float] = {}
        if self.ttft_p99_s is not None:
            targets["ttft_p99_s"] = float(self.ttft_p99_s)
        if self.latency_p95_s is not None:
            targets["latency_p95_s"] = float(self.latency_p95_s)
        if self.queue_wait_p99_s is not None:
            targets["queue_wait_p99_s"] = float(self.queue_wait_p99_s)
        return targets


@dataclass(frozen=True)
class FaultsSpec(Spec):
    """Declarative fault plan: how many faults, when, how hard (pure data).

    The concrete :class:`~repro.serving.faults.FaultSchedule` — which
    chips fail, the exact timestamps — is derived at compile time from
    the owning spec's hash (role ``"faults"``), so the plan itself stays
    pure data and the schedule reproduces bit-identically everywhere.
    ``window`` bounds fault times to a fraction band of the trace span,
    ``outage_s`` (if set) brings failed chips back after a fixed outage,
    and ``drain_policy`` decides whether a dying chip finishes or aborts
    its in-flight requests.
    """

    n_chip_failures: int = 0
    n_dram_degrades: int = 0
    window: Tuple[float, float] = (0.25, 0.75)
    outage_s: Optional[float] = when_set(None)
    degrade_factor: float = 0.5
    drain_policy: str = "drain"

    def __post_init__(self) -> None:
        if self.n_chip_failures < 0 or self.n_dram_degrades < 0:
            raise ValueError("fault counts must be >= 0")
        if self.n_chip_failures + self.n_dram_degrades < 1:
            raise ValueError("a faults block needs at least one fault")
        lo, hi = self.window
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError("fault window must satisfy 0 <= lo < hi <= 1")
        if not 0.0 < self.degrade_factor <= 1.0:
            raise ValueError("degrade_factor must be in (0, 1]")
        if self.outage_s is not None and self.outage_s <= 0:
            raise ValueError("outage_s must be positive")
        if self.drain_policy not in DRAIN_POLICIES:
            raise ValueError(
                f"drain_policy must be one of {DRAIN_POLICIES}, "
                f"got {self.drain_policy!r}"
            )


@dataclass(frozen=True)
class ChaosSpec(Spec):
    """Declarative runtime-chaos plan: how much to break the control plane.

    The concrete :class:`~repro.serving.runtime.chaos.ChaosSchedule` —
    which actors crash, which messages drop, at which logical ordinals —
    is derived at compile time from the owning spec's hash (role
    ``"chaos"``), so the plan stays pure data and the schedule
    reproduces bit-identically everywhere.  Chaos lives entirely at the
    live runtime's mailbox boundary: the batch plane ignores it, and the
    live plane must produce a report identical to the undisturbed run's
    (modulo the ``incidents`` block) — that invariant is exactly what a
    chaos block asks CI to re-prove for the scenario.

    ``n_crashes``/``n_hangs`` target chip actors, ``n_drops``/
    ``n_delays`` the message stream, ``n_supervisor_crashes`` the
    supervisor itself (exercising restart-from-auto-checkpoint).
    ``hang_shards`` sizes each hang, ``delay_s`` each delay, and
    ``max_retries`` caps per-job recovery attempts before the run fails.
    """

    n_crashes: int = 1
    n_hangs: int = 0
    n_drops: int = 0
    n_delays: int = 0
    n_supervisor_crashes: int = 0
    hang_shards: int = 2
    delay_s: float = 0.05
    max_retries: int = 3

    def __post_init__(self) -> None:
        counts = (
            self.n_crashes,
            self.n_hangs,
            self.n_drops,
            self.n_delays,
            self.n_supervisor_crashes,
        )
        if any(count < 0 for count in counts):
            raise ValueError("chaos counts must be >= 0")
        if sum(counts) < 1:
            raise ValueError("a chaos block needs at least one fault")
        if self.hang_shards < 1:
            raise ValueError("hang_shards must be >= 1")
        if self.delay_s <= 0:
            raise ValueError("delay_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


@dataclass(frozen=True)
class ScenarioSpec(Spec):
    """A complete, serializable description of one serving scenario."""

    name: str
    description: str = ""
    n_requests: int = 100
    mix: Tuple[WorkloadComponent, ...] = (WorkloadComponent(name="chat", images=0),)
    arrival: ArrivalSpec = ArrivalSpec()
    fleet: FleetSpec = FleetSpec()
    slo: SLOSpec = SLOSpec()
    #: Extra entropy folded into every derived seed; two specs that differ
    #: only in the salt compile to different (but each reproducible) traces.
    seed_salt: int = 0
    #: Optional fault plan; ``None`` (the default, omitted from the
    #: serialized form) keeps the scenario on the fault-free path and its
    #: spec hash exactly as before the field existed.
    faults: Optional[FaultsSpec] = when_set(None)
    #: Optional runtime-chaos plan; ``None`` (the default, omitted from
    #: the serialized form) keeps the spec hash exactly as before the
    #: field existed.  Chaos targets the live runtime's control plane
    #: only — it composes freely with ``faults`` (simulated hardware).
    chaos: Optional[ChaosSpec] = when_set(None)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must not be empty")
        if self.n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if not self.mix:
            raise ValueError("a scenario needs at least one workload component")
        names = [component.name for component in self.mix]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate component names in mix: {names}")
        if self.arrival.kind == "trace" and self.arrival.times is not None:
            if self.n_requests > len(self.arrival.times):
                raise ValueError(
                    f"trace holds {len(self.arrival.times)} arrivals, "
                    f"{self.n_requests} requested"
                )
        if self.faults is not None:
            chips = self.fleet.provisioned_chips
            total = self.faults.n_chip_failures + self.faults.n_dram_degrades
            if total > chips:
                raise ValueError(
                    f"faults target {total} distinct chips but the fleet "
                    f"has only {chips}"
                )
            if (
                self.faults.outage_s is None
                and self.faults.n_chip_failures >= chips
            ):
                raise ValueError(
                    "permanent chip failures must leave at least one chip "
                    "alive (set outage_s or lower n_chip_failures)"
                )

    # ------------------------------------------------------------------
    # Identity and seed derivation
    # ------------------------------------------------------------------
    def spec_hash(self) -> str:
        """SHA-256 of the canonical JSON — the scenario's stable identity."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def derive_seed(self, role: str) -> int:
        """A deterministic 64-bit seed for one named random stream.

        Derived from the spec's content hash, never from Python's salted
        ``hash()`` or interpreter state, so the same spec yields the same
        seed in every process (the regression suite pins reference values).
        """
        material = f"{self.spec_hash()}:{role}".encode("utf-8")
        return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")

    def with_fleet(self, fleet: FleetSpec) -> "ScenarioSpec":
        """A copy serving the same traffic on a different fleet."""
        return replace(self, fleet=fleet)
