"""The capacity planner's candidate space: chip designs × fleet options.

A planning run searches a cross product of two axes:

* :class:`ChipDesign` — one point of the parameterized EdgeMM design
  family (group count and CC:MC cluster mix, lowered through
  :func:`repro.core.config.scaled_system`);
* :class:`FleetOption` — how many of that chip to deploy behind the
  dispatcher, under which dispatch policy, and whether the SLO-aware
  autoscaler manages the fleet size.

:class:`PlannerConfig` bundles the axes with their bounds; its canonical
JSON form is hashed into the plan identity, so two runs with the same
scenario and the same config produce byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from ..codec import Spec, when_set
from ..core.config import SystemConfig, default_system, scaled_system
from ..scenarios.spec import FleetSpec
from ..serving.autoscale import AutoscalerSpec
from ..serving.fleet import POLICIES

#: The default design family swept by ``python -m repro.planner plan``:
#: two chip scales, four CC:MC cluster mixes each.
DEFAULT_CHIP_MIXES: Tuple[Tuple[int, int], ...] = ((1, 1), (2, 2), (3, 1), (1, 3))
DEFAULT_GROUP_COUNTS: Tuple[int, ...] = (2, 4)

#: The base system's DRAM tier in GB/s — the effective ``dram_gbps`` of a
#: design that leaves the axis unset (resolved once at import; the base
#: system is a module constant).
BASE_DRAM_GBPS: float = (
    default_system().chip.dram.peak_bandwidth_bytes_per_s / 1e9
)


@dataclass(frozen=True)
class ChipDesign(Spec):
    """One chip design point: geometry plus optional DRAM/pruning axes.

    ``n_groups`` scales the whole chip; ``cc_per_group`` and
    ``mc_per_group`` set the per-group count of compute-centric and
    memory-centric clusters (at least one cluster overall).

    Two optional axes extend the geometry into the full design space the
    branch-and-bound planner searches:

    * ``dram_gbps`` — the DRAM tier, as peak pin bandwidth in GB/s
      (``None`` keeps the base system's LPDDR5X default);
    * ``keep_fraction`` — the activation-pruning operating point, the
      average fraction of FFN input channels kept per decode step
      (``None`` leaves runtime pruning off).

    Both are ``None`` by default and omitted from :meth:`to_dict` when
    unset, so pre-existing serialized designs (golden plan reports, plan
    hashes) are byte-stable.
    """

    n_groups: int
    cc_per_group: int
    mc_per_group: int
    dram_gbps: Optional[float] = when_set(None)
    keep_fraction: Optional[float] = when_set(None)

    def __post_init__(self) -> None:
        if self.n_groups < 1:
            raise ValueError("n_groups must be >= 1")
        if self.cc_per_group < 0 or self.mc_per_group < 0:
            raise ValueError("cluster counts must be >= 0")
        if self.cc_per_group == 0 and self.mc_per_group == 0:
            raise ValueError("a chip needs at least one cluster per group")
        if self.dram_gbps is not None and not self.dram_gbps > 0:
            raise ValueError("dram_gbps must be positive")
        if self.keep_fraction is not None and not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")

    @property
    def name(self) -> str:
        """Stable display name, e.g. ``4x2cc2mc`` or ``8x2cc2mc-d204.8-k0.5``.

        The DRAM and pruning suffixes appear only when the axis is set, so
        geometry-only designs keep their historical names (which key the
        planner's per-design simulators and the golden reports).
        """
        label = f"{self.n_groups}x{self.cc_per_group}cc{self.mc_per_group}mc"
        if self.dram_gbps is not None:
            label += f"-d{self.dram_gbps:g}"
        if self.keep_fraction is not None:
            label += f"-k{self.keep_fraction:g}"
        return label

    def system(self) -> SystemConfig:
        """Lower the design point to a full :class:`SystemConfig`."""
        base = default_system()
        if self.dram_gbps is not None:
            dram = replace(
                base.chip.dram,
                peak_bandwidth_bytes_per_s=self.dram_gbps * 1e9,
            )
            base = replace(base, chip=replace(base.chip, dram=dram))
        system = scaled_system(
            n_groups=self.n_groups,
            cc_clusters_per_group=self.cc_per_group,
            mc_clusters_per_group=self.mc_per_group,
            base=base,
        )
        if self.keep_fraction is not None:
            system = system.with_pruning(self.keep_fraction)
        return system


@dataclass(frozen=True)
class FleetOption(Spec):
    """One fleet topology candidate for a chip design.

    A *static* option (``autoscaled=False``) deploys exactly ``n_chips``
    chips under ``policy``.  An *autoscaled* option treats ``n_chips`` as
    the provisioning cap: the SLO-aware controller grows the fleet between
    ``min_chips`` and ``n_chips`` and always admits with the front-door
    queue (the planner never sheds traffic — a plan must serve the whole
    trace, which is also what keeps analytic pruning sound).
    """

    n_chips: int
    policy: str = "least_loaded"
    autoscaled: bool = False
    min_chips: int = 1

    def __post_init__(self) -> None:
        if self.n_chips < 1:
            raise ValueError("n_chips must be >= 1")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if not 1 <= self.min_chips <= self.n_chips:
            raise ValueError("min_chips must be in [1, n_chips]")
        if self.autoscaled and self.policy != "least_loaded":
            raise ValueError("autoscaled fleets always dispatch least_loaded")

    @property
    def label(self) -> str:
        """Stable display name, e.g. ``static3/least_loaded`` or ``auto1-4``."""
        if self.autoscaled:
            return f"auto{self.min_chips}-{self.n_chips}"
        return f"static{self.n_chips}/{self.policy}"

    def fleet_spec(self, base: FleetSpec) -> FleetSpec:
        """The scenario's fleet ``base``, resized to this option.

        ``base`` keeps its serving knobs (model, batch size, bandwidth
        split, context bucket).  A static option takes its chips and
        policy, with no autoscaler; an autoscaled one takes ``base``'s
        controller tuning (the defaults if it has none) with this
        option's chip bounds and queue admission.
        """
        if not self.autoscaled:
            return replace(
                base, n_chips=self.n_chips, policy=self.policy, autoscaler=None
            )
        tuning = replace(
            base.autoscaler or AutoscalerSpec(),
            min_chips=self.min_chips,
            max_chips=self.n_chips,
            admission="queue",
        )
        return replace(base, autoscaler=tuning)


def build_chip_grid(
    *,
    groups: Sequence[int] = DEFAULT_GROUP_COUNTS,
    mixes: Sequence[Tuple[int, int]] = DEFAULT_CHIP_MIXES,
    dram_gbps: Sequence[Optional[float]] = (None,),
    keep_fractions: Sequence[Optional[float]] = (None,),
) -> Tuple[ChipDesign, ...]:
    """The full cross product of the four chip axes, in canonical order.

    ``groups``, ``mixes``, ``dram_gbps`` and ``keep_fractions`` each list
    the values of one axis.  Axis order in the product is (groups, mixes,
    dram, keep) — outermost first — which matches the nesting the
    branch-and-bound search splits on.  ``None`` entries in the optional
    axes mean "the base tier" / "pruning off" and serialize axis-free;
    the defaults give the default design family (group counts × CC:MC
    mixes).  With explicit values on every axis, a 10^5-candidate space
    is one call (``8 groups × 7 mixes × 16 DRAM tiers × 16 keep
    fractions`` is already 14k designs before fleet options multiply
    in).
    """
    return tuple(
        ChipDesign(
            n_groups=n_groups,
            cc_per_group=cc,
            mc_per_group=mc,
            dram_gbps=dram,
            keep_fraction=keep,
        )
        for n_groups in groups
        for cc, mc in mixes
        for dram in dram_gbps
        for keep in keep_fractions
    )


def parse_mixes(text: str) -> Tuple[Tuple[int, int], ...]:
    """Parse a CLI mix list ``text`` like ``"2:2,3:1"`` into (cc, mc) tuples."""
    mixes: List[Tuple[int, int]] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            cc_text, mc_text = token.split(":")
            mixes.append((int(cc_text), int(mc_text)))
        except ValueError:
            raise ValueError(
                f"mix {token!r} is not of the form CC:MC (e.g. 2:2)"
            ) from None
    if not mixes:
        raise ValueError("at least one CC:MC mix is required")
    return tuple(mixes)


@dataclass(frozen=True)
class PlannerConfig(Spec):
    """The candidate space of one planning run (pure data).

    ``chip_grid`` lists the design points considered (empty means the
    default family, :func:`build_chip_grid`'s defaults); fleet sizes span
    ``min_chips`` to ``max_chips`` under each policy of ``policies``, and
    ``include_autoscaled`` adds one autoscaled option per design (capped at
    ``max_chips``) whenever the scenario states a TTFT objective for the
    controller to steer toward.
    """

    chip_grid: Tuple[ChipDesign, ...] = ()
    min_chips: int = 1
    max_chips: int = 4
    policies: Tuple[str, ...] = ("least_loaded",)
    include_autoscaled: bool = True

    def __post_init__(self) -> None:
        if not self.chip_grid:
            object.__setattr__(self, "chip_grid", build_chip_grid())
        names = [design.name for design in self.chip_grid]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate chip designs in grid: {names}")
        if self.min_chips < 1:
            raise ValueError("min_chips must be >= 1")
        if self.max_chips < self.min_chips:
            raise ValueError("max_chips must be >= min_chips")
        if not self.policies:
            raise ValueError("at least one dispatch policy is required")
        for policy in self.policies:
            if policy not in POLICIES:
                raise ValueError(
                    f"policy must be one of {POLICIES}, got {policy!r}"
                )

    @classmethod
    def from_axes(
        cls,
        *,
        groups: Sequence[int] = DEFAULT_GROUP_COUNTS,
        mixes: Sequence[Tuple[int, int]] = DEFAULT_CHIP_MIXES,
        dram_gbps: Sequence[Optional[float]] = (None,),
        keep_fractions: Sequence[Optional[float]] = (None,),
        min_chips: int = 1,
        max_chips: int = 4,
        policies: Tuple[str, ...] = ("least_loaded",),
        include_autoscaled: bool = True,
    ) -> "PlannerConfig":
        """Build a config from per-axis value lists (see :func:`build_chip_grid`).

        This is how a large candidate space is expressed without code
        edits: every chip axis (group counts, CC:MC mixes, DRAM bandwidth
        tiers, pruning keep fractions) and both fleet axes (chip counts,
        dispatch policies) take explicit value lists, and the candidate
        count is their product.
        """
        return cls(
            chip_grid=build_chip_grid(
                groups=groups,
                mixes=mixes,
                dram_gbps=dram_gbps,
                keep_fractions=keep_fractions,
            ),
            min_chips=min_chips,
            max_chips=max_chips,
            policies=policies,
            include_autoscaled=include_autoscaled,
        )

    def fleet_options(self, *, with_autoscaled: bool) -> Tuple[FleetOption, ...]:
        """Enumerate the fleet options of the run, in deterministic order.

        ``with_autoscaled`` gates the autoscaled option on the scenario
        actually stating a TTFT objective (the controller's set point).
        """
        options: List[FleetOption] = [
            FleetOption(n_chips=n_chips, policy=policy)
            for n_chips in range(self.min_chips, self.max_chips + 1)
            for policy in self.policies
        ]
        if self.include_autoscaled and with_autoscaled and self.max_chips > 1:
            options.append(
                FleetOption(
                    n_chips=self.max_chips,
                    policy="least_loaded",
                    autoscaled=True,
                    min_chips=self.min_chips,
                )
            )
        return tuple(options)
