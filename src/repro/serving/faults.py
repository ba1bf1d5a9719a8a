"""Fault schedules: the modelled hardware faults a fleet run replays.

A :class:`FaultSchedule` is a deterministic timeline of fleet faults —
``chip_down`` (a chip stops admitting work), ``chip_up`` (it rejoins the
fleet) and ``dram_degrade`` (its DRAM tier drops to a fraction of the
healthy bandwidth).  A fleet run replays it through the era controller
of its fleet kind (:mod:`repro.serving.controllers`), which splits each
target chip's service history into eras at the event times; a run
without faults plays the empty schedule, a timeline with no events.
:func:`fault_recovery` measures each disruptive event's SLO impact from
the run's records alone (:class:`FaultRecovery`).

These are *modelled* hardware faults — part of what the simulation
computes.  They compose freely with the *runtime* faults of
:mod:`repro.serving.runtime.chaos` (crashed actors, dropped messages),
which attack the control plane executing the computation and must not
change its result: a fault-schedule scenario run under a chaos schedule
still reproduces its fault summary byte-identically.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..codec import Spec, for_kinds, inlined
from .metrics import RequestRecord, percentile

FAULT_KINDS: Tuple[str, ...] = ("chip_down", "chip_up", "dram_degrade")
DRAIN_POLICIES: Tuple[str, ...] = ("drain", "abort")

#: Post-fault records per tumbling window of the recovery metrics.
RECOVERY_WINDOW = 32
#: A post-fault window has recovered once its p99 TTFT is back within
#: this multiple of the pre-fault baseline.
RECOVERY_TOLERANCE = 1.1


@dataclass(frozen=True)
class FaultEvent(Spec):
    """One scheduled fleet fault: a kind, a time and a target chip.

    ``factor`` applies to ``dram_degrade`` only: the degraded DRAM
    bandwidth as a fraction of the chip's *healthy* baseline (absolute,
    not compounding — a second degrade replaces the first).
    """

    time_s: float
    kind: str
    chip_id: int
    factor: float = for_kinds("dram_degrade", default=1.0)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.time_s < 0:
            raise ValueError("fault time_s must be >= 0")
        if self.chip_id < 0:
            raise ValueError("fault chip_id must be >= 0")
        if self.kind == "dram_degrade":
            if not 0.0 < self.factor <= 1.0:
                raise ValueError("dram_degrade factor must be in (0, 1]")
        elif self.factor != 1.0:
            raise ValueError("factor only applies to dram_degrade events")


@dataclass(frozen=True)
class FaultSchedule(Spec):
    """A deterministic, time-ordered timeline of fleet fault events.

    ``drain_policy`` governs what a dying chip does with requests whose
    prefill already started: ``"drain"`` finishes them in place (the
    fleet model of graceful decommission), ``"abort"`` discards any
    record unfinished at the event time and re-dispatches the request
    from scratch (hard failure; no work is lost *or* duplicated — the
    conservation property suite asserts it).
    """

    events: Tuple[FaultEvent, ...] = ()
    drain_policy: str = "drain"

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if self.drain_policy not in DRAIN_POLICIES:
            raise ValueError(
                f"drain_policy must be one of {DRAIN_POLICIES}, "
                f"got {self.drain_policy!r}"
            )
        down: set = set()
        last = float("-inf")
        for event in self.events:
            if event.time_s < last:
                raise ValueError("fault events must be sorted by time_s")
            last = event.time_s
            if event.kind == "chip_down":
                if event.chip_id in down:
                    raise ValueError(
                        f"chip {event.chip_id} goes down twice without a "
                        "chip_up in between"
                    )
                down.add(event.chip_id)
            elif event.kind == "chip_up":
                if event.chip_id not in down:
                    raise ValueError(
                        f"chip {event.chip_id} comes up without being down"
                    )
                down.discard(event.chip_id)
            elif event.chip_id in down:
                raise ValueError(
                    f"chip {event.chip_id} cannot degrade while down"
                )


@dataclass(frozen=True)
class FaultRecovery(Spec):
    """Measured SLO impact of one disruptive fault event.

    ``baseline_p99_ttft_s`` is the p99 TTFT of all records arriving
    before the event; ``dent_depth_s`` is how far the worst post-event
    tumbling window's p99 rose above it (clamped at zero); and
    ``time_to_recover_s`` is the span from the event to the last arrival
    of the first post-event window whose p99 is back within
    :data:`RECOVERY_TOLERANCE` of the baseline (``None`` when the trace
    ends before recovery).
    """

    #: Written with the event's keys inlined (the report's impact form).
    event: FaultEvent = inlined()
    baseline_p99_ttft_s: float
    dent_depth_s: float
    time_to_recover_s: Optional[float]


def fault_recovery(
    records: Sequence[RequestRecord],
    events: Sequence[FaultEvent],
    *,
    window: int = RECOVERY_WINDOW,
) -> Tuple[FaultRecovery, ...]:
    """Recovery metrics of each disruptive event, from the records alone.

    A pure function of the per-request records (arrival-ordered TTFTs
    chunked into ``window``-sized tumbling windows; recovery means a
    window's p99 is back within :data:`RECOVERY_TOLERANCE` of the
    pre-event baseline),
    so the metrics are engine-independent by construction and
    re-derivable by any consumer of the raw records.  ``chip_up`` events
    are restorative and skipped.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    ordered = sorted(records, key=lambda r: (r.arrival_s, r.request_id))
    arrivals = [record.arrival_s for record in ordered]
    ttfts = [record.ttft_s for record in ordered]
    out: List[FaultRecovery] = []
    for event in events:
        if event.kind == "chip_up":
            continue
        cut = bisect_left(arrivals, event.time_s)
        pre, post = ttfts[:cut], ttfts[cut:]
        baseline = percentile(pre, 99) if pre else 0.0
        dent = 0.0
        recover: Optional[float] = None
        for start in range(0, len(post), window):
            chunk = post[start : start + window]
            p99 = percentile(chunk, 99)
            if p99 - baseline > dent:
                dent = p99 - baseline
            if recover is None and p99 <= baseline * RECOVERY_TOLERANCE:
                last = arrivals[cut + start + len(chunk) - 1]
                recover = last - event.time_s
        out.append(
            FaultRecovery(
                event=event,
                baseline_p99_ttft_s=baseline,
                dent_depth_s=dent,
                time_to_recover_s=recover,
            )
        )
    return tuple(out)


__all__ = [
    "FAULT_KINDS",
    "DRAIN_POLICIES",
    "RECOVERY_WINDOW",
    "RECOVERY_TOLERANCE",
    "FaultEvent",
    "FaultSchedule",
    "FaultRecovery",
    "fault_recovery",
]
