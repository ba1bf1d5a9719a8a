"""SLO-aware fleet autoscaling and admission control.

``FleetSimulator(model, autoscaler=AutoscalerConfig(...))`` runs a
:class:`~repro.serving.fleet.FleetSimulator` under a dispatcher-side
control loop, the way a real serving front-end scales a chip fleet.  The
full ``max_chips`` fleet is built up front, but only an *active* prefix
of it receives requests:

* **observability** — for every dispatched request the controller keeps a
  dispatcher-side *estimate* of its time to first token (chip horizon +
  batch-1 prefill + one decode step, the same array-priced estimates the
  ``least_loaded`` policy uses, warmed by ``precompute_service_times``);
* **scaling** — a rolling window of recent TTFT estimates is folded into a
  p99; when it exceeds the target the controller *adds* a chip (up to
  ``max_chips``), when it falls well below the target it *drains* one
  (down to ``min_chips``).  A drained chip finishes its in-flight work but
  receives no new requests.  Scaling honours a cooldown so one burst does
  not thrash the fleet;
* **admission control** — the controller tracks the estimated number of
  in-flight requests; beyond ``max_queue_depth`` per active chip it either
  **rejects** new arrivals outright or **queues** them at the front door,
  delaying dispatch until a slot frees (the request's recorded arrival
  stays its true arrival, so the admission delay shows up as queue wait).

The control loop runs on *estimates*; the per-request records come from
the exact per-chip :class:`~repro.serving.queue.ContinuousBatchingSimulator`
replay of the resulting assignment, so reports stay grounded in the
event-driven engine.  The loop itself is
:class:`~repro.serving.controllers.AutoscaleController`, the fleet's one
controller, which :meth:`~repro.serving.fleet.FleetSimulator.run` drives
with or without a fault schedule.  This module holds its tuning
(:class:`AutoscalerConfig`) and its decision record
(:class:`ScalingEvent`); the run returns the one
:class:`~repro.serving.fleet.FleetResult` of every fleet kind, whose
``events``, ``rejected_ids`` and ``final_chips`` carry the controller's
activity.  Everything is deterministic: the same trace and configuration
reproduce bit-identical records, decisions and reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from ..codec import Spec
from ..models.mllm import MLLMConfig
from .fleet import FleetSimulator

ADMISSION_POLICIES: Tuple[str, ...] = ("queue", "reject")


@dataclass(frozen=True)
class AutoscalerConfig:
    """Tuning of the SLO-aware fleet controller.

    ``target_p99_ttft_s`` is the objective the controller steers toward;
    scaling triggers when the rolling p99 of TTFT estimates crosses
    ``target * scale_up_ratio`` (up) or ``target * scale_down_ratio``
    (down).  ``max_queue_depth`` bounds the estimated in-flight requests
    *per active chip* before admission control engages with the
    ``admission`` policy ("queue" delays dispatch, "reject" drops).
    """

    target_p99_ttft_s: float
    min_chips: int = 1
    max_chips: int = 4
    #: Number of recent TTFT estimates the rolling percentile covers.
    window: int = 64
    #: Minimum observations before the controller acts at all.
    min_observations: int = 16
    cooldown_s: float = 1.0
    scale_up_ratio: float = 1.0
    scale_down_ratio: float = 0.4
    max_queue_depth: int = 64
    admission: str = "queue"

    def __post_init__(self) -> None:
        if self.target_p99_ttft_s <= 0:
            raise ValueError("target_p99_ttft_s must be positive")
        check_tuning(self)


def check_tuning(tuning: Any) -> None:
    """Raise ``ValueError`` naming the first out-of-range knob of ``tuning``.

    ``tuning`` is an :class:`AutoscalerConfig` or a scenario's
    :class:`~repro.scenarios.spec.AutoscalerSpec` (anything with their
    shared fields: chip bounds, window, cooldown, scaling ratios, queue
    depth and admission policy).  Both run this one check as they are
    built, so a spec file and a config refuse a value with one message.
    """
    if tuning.min_chips < 1:
        raise ValueError("min_chips must be >= 1")
    if tuning.max_chips < tuning.min_chips:
        raise ValueError("max_chips must be >= min_chips")
    if tuning.window < 1 or tuning.min_observations < 1:
        raise ValueError("window and min_observations must be >= 1")
    if tuning.cooldown_s < 0:
        raise ValueError("cooldown_s must be >= 0")
    if tuning.scale_up_ratio <= 0:
        raise ValueError("scale_up_ratio must be positive")
    if not 0 <= tuning.scale_down_ratio < tuning.scale_up_ratio:
        raise ValueError("scale_down_ratio must be in [0, scale_up_ratio)")
    if tuning.max_queue_depth < 1:
        raise ValueError("max_queue_depth must be >= 1")
    if tuning.admission not in ADMISSION_POLICIES:
        raise ValueError(
            f"admission must be one of {ADMISSION_POLICIES}, "
            f"got {tuning.admission!r}"
        )


@dataclass(frozen=True)
class ScalingEvent(Spec):
    """One controller decision: the fleet grew or shrank."""

    time_s: float
    n_chips_before: int
    n_chips_after: int
    rolling_p99_ttft_s: float

    @property
    def direction(self) -> str:
        """``"up"`` when the fleet grew, ``"down"`` when it drained."""
        return "up" if self.n_chips_after > self.n_chips_before else "down"


def AutoscalingFleetSimulator(
    model: MLLMConfig, *, autoscaler: AutoscalerConfig, **kwargs: Any
) -> FleetSimulator:
    """``FleetSimulator(model, autoscaler=autoscaler, **kwargs)``, by its old name.

    Exists only for the traced mode of e2ebench
    (``e2ebench/workloads.py``), which imports this name; library code
    builds the fleet directly.  ``model`` and ``autoscaler`` are the
    fleet's, and ``kwargs`` forward to
    :class:`~repro.serving.fleet.FleetSimulator`.  A function, not a
    subclass or an alias: it has no ``run`` of its own, so a wrapper
    around ``FleetSimulator.run`` sees every fleet exactly once.
    """
    return FleetSimulator(model, autoscaler=autoscaler, **kwargs)
