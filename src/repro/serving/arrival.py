"""Request arrival processes for traffic-scale serving simulation.

Four arrival models cover the deployment scenarios the serving simulator
targets:

* :class:`PoissonArrivals` — memoryless traffic at a constant offered rate,
  the classical open-loop load model;
* :class:`BurstyArrivals` — a two-state Markov-modulated Poisson process
  alternating between a calm state and a burst state whose rate is a
  multiple of the base rate (interactive edge traffic is bursty, not
  Poisson);
* :class:`DiurnalArrivals` — Poisson traffic whose rate follows an
  hour-of-day multiplier table over a configurable day length, the
  composition-churning daily load curve week-long serving studies need;
* :class:`TraceArrivals` — replay of an explicit timestamp trace, for
  feeding measured production traces through the simulator.

All generators are deterministic under a fixed seed: two generators built
with the same parameters produce bit-identical timestamp sequences, which
the test suite relies on and which makes serving experiments reproducible.
Every process also exposes ``iter_times()``, a *streaming* view with the
exact RNG call order of ``generate``: ``generate(n)`` equals the first
``n`` elements of ``iter_times()``, which is what lets the scenario
compiler draw one arrival per request slot without materialising the
whole timestamp list.

:class:`RequestSampler` pairs the arrival times with request *shapes*
(image count, prompt length, output length), again deterministically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Iterator, List, Sequence, Tuple

from ..models.mllm import InferenceRequest


class PoissonArrivals:
    """Poisson arrival process at a constant ``rate_rps`` requests/second."""

    def __init__(self, rate_rps: float, *, seed: int = 0) -> None:
        if rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        self.rate_rps = rate_rps
        self.seed = seed

    def iter_times(self) -> Iterator[float]:
        """Stream the arrival timestamps (the unbounded ``generate``)."""
        rng = random.Random(self.seed)
        now = 0.0
        while True:
            now += rng.expovariate(self.rate_rps)
            yield now

    def generate(self, n: int) -> List[float]:
        """Arrival timestamps (seconds, sorted, starting after t = 0)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        return list(islice(self.iter_times(), n))


class BurstyArrivals:
    """Two-state Markov-modulated Poisson process (calm / burst).

    The process alternates between a calm state at ``rate_rps`` and a burst
    state at ``rate_rps * burst_multiplier``.  State residence is geometric:
    after each arrival the process stays in its state with a probability
    derived from ``mean_calm_arrivals`` / ``mean_burst_arrivals``.
    """

    def __init__(
        self,
        rate_rps: float,
        *,
        burst_multiplier: float = 8.0,
        mean_calm_arrivals: float = 60.0,
        mean_burst_arrivals: float = 20.0,
        seed: int = 0,
    ) -> None:
        if rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if burst_multiplier < 1.0:
            raise ValueError("burst_multiplier must be >= 1")
        if mean_calm_arrivals < 1.0 or mean_burst_arrivals < 1.0:
            raise ValueError("mean state lengths must be >= 1 arrival")
        self.rate_rps = rate_rps
        self.burst_multiplier = burst_multiplier
        self.mean_calm_arrivals = mean_calm_arrivals
        self.mean_burst_arrivals = mean_burst_arrivals
        self.seed = seed

    def iter_times(self) -> Iterator[float]:
        """Stream the arrival timestamps (the unbounded ``generate``)."""
        rng = random.Random(self.seed)
        now = 0.0
        bursting = False
        while True:
            rate = self.rate_rps * (self.burst_multiplier if bursting else 1.0)
            now += rng.expovariate(rate)
            yield now
            mean_length = (
                self.mean_burst_arrivals if bursting else self.mean_calm_arrivals
            )
            if rng.random() < 1.0 / mean_length:
                bursting = not bursting

    def generate(self, n: int) -> List[float]:
        """Arrival timestamps (seconds, sorted, starting after t = 0)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        return list(islice(self.iter_times(), n))


#: Default hour-of-day rate multipliers of :class:`DiurnalArrivals`: a
#: literal overnight-trough / midday-plateau / evening-shoulder curve
#: (mean very close to 1.0, so ``rate_rps`` stays the approximate daily
#: mean).  A literal table — not runtime trigonometry — keeps compiled
#: scenarios byte-identical across platforms and libm versions.
DIURNAL_HOURLY_MULTIPLIERS: Tuple[float, ...] = (
    0.35, 0.28, 0.24, 0.22, 0.24, 0.30,
    0.45, 0.70, 1.00, 1.30, 1.50, 1.60,
    1.55, 1.50, 1.45, 1.40, 1.35, 1.40,
    1.50, 1.55, 1.40, 1.10, 0.80, 0.55,
)


class DiurnalArrivals:
    """Poisson arrivals whose rate follows an hour-of-day load curve.

    Each inter-arrival gap is exponential at ``rate_rps`` scaled by the
    multiplier of the *current* hour slot (the
    :data:`DIURNAL_HOURLY_MULTIPLIERS` spread evenly over one
    ``period_s``-second day), the standard piecewise-constant
    approximation of a non-homogeneous Poisson process.  Shrinking
    ``period_s`` compresses the day, so regression-sized scenarios can
    replay a whole "week" of load churn in a few simulated minutes.
    """

    def __init__(
        self,
        rate_rps: float,
        *,
        period_s: float = 86400.0,
        seed: int = 0,
    ) -> None:
        if rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.rate_rps = rate_rps
        self.period_s = period_s
        self.seed = seed

    def iter_times(self) -> Iterator[float]:
        """Stream the arrival timestamps (the unbounded ``generate``)."""
        rng = random.Random(self.seed)
        multipliers = DIURNAL_HOURLY_MULTIPLIERS
        slot_s = self.period_s / len(multipliers)
        slots = len(multipliers)
        now = 0.0
        while True:
            rate = self.rate_rps * multipliers[int(now / slot_s) % slots]
            now += rng.expovariate(rate)
            yield now

    def generate(self, n: int) -> List[float]:
        """Arrival timestamps (seconds, sorted, starting after t = 0)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        return list(islice(self.iter_times(), n))


class TraceArrivals:
    """Replay of an explicit arrival-timestamp trace.

    The trace must already be in non-decreasing order: trace position pairs
    each timestamp with a request shape downstream (``build_trace``), so
    silently sorting would re-pair times with the wrong requests.
    """

    def __init__(self, times: Sequence[float]) -> None:
        times = [float(t) for t in times]
        if any(t < 0 for t in times):
            raise ValueError("trace timestamps must be >= 0")
        if any(later < earlier for earlier, later in zip(times, times[1:])):
            raise ValueError(
                "trace timestamps must be non-decreasing (trace order pairs "
                "timestamps with request shapes)"
            )
        self.times = times

    def iter_times(self) -> Iterator[float]:
        """Stream the replayed timestamps (exhausts at the trace's end)."""
        return iter(self.times)

    def generate(self, n: int) -> List[float]:
        """The first ``n`` trace timestamps (the trace must be long enough)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if n > len(self.times):
            raise ValueError(
                f"trace holds {len(self.times)} arrivals, {n} requested"
            )
        return list(self.times[:n])


@dataclass(frozen=True)
class RequestSampler:
    """Deterministic sampler of request shapes.

    ``output_token_choices`` are drawn with ``output_token_weights`` (short
    answers dominate real chat traffic, with a long tail); prompt lengths are
    uniform over ``prompt_token_range``.
    """

    images: int = 1
    prompt_token_range: Tuple[int, int] = (16, 64)
    output_token_choices: Tuple[int, ...] = (16, 32, 64, 128, 256)
    output_token_weights: Tuple[float, ...] = (0.3, 0.3, 0.25, 0.1, 0.05)
    seed: int = 0

    def __post_init__(self) -> None:
        lo, hi = self.prompt_token_range
        if lo <= 0 or hi < lo:
            raise ValueError("prompt_token_range must be a positive (lo, hi)")
        if len(self.output_token_choices) != len(self.output_token_weights):
            raise ValueError("choices and weights must have equal length")
        if any(tokens <= 0 for tokens in self.output_token_choices):
            raise ValueError("output token choices must be positive")

    def iter_shapes(self) -> Iterator[Tuple[int, int, int]]:
        """Stream ``(images, prompt_text_tokens, output_tokens)`` triples.

        The streaming view of :meth:`sample`, with the identical RNG call
        order per request, so the first ``n`` triples match ``sample(n)``
        field for field.  The scenario compiler draws each slot's shape
        from it and builds one
        :class:`~repro.models.mllm.InferenceRequest` per distinct triple.
        """
        rng = random.Random(self.seed)
        lo, hi = self.prompt_token_range
        # What ``choices`` derives from the weights on every call.
        cum_weights = list(accumulate(self.output_token_weights))
        while True:
            output_tokens = rng.choices(
                self.output_token_choices, cum_weights=cum_weights
            )[0]
            yield (self.images, rng.randint(lo, hi), output_tokens)

    def sample(self, n: int) -> List[InferenceRequest]:
        """``n`` request shapes, bit-identical for identical samplers."""
        if n < 0:
            raise ValueError("n must be >= 0")
        return [
            InferenceRequest(
                images=images,
                prompt_text_tokens=prompt_text_tokens,
                output_tokens=output_tokens,
            )
            for images, prompt_text_tokens, output_tokens in islice(
                self.iter_shapes(), n
            )
        ]
