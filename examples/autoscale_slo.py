"""SLO-aware autoscaling: the same bursty trace, static vs autoscaled.

A one-chip fleet drowns under a bursty trace and blows its p99-TTFT SLO;
the same ``FleetSimulator`` given an ``AutoscalerSpec`` whose
``target_p99_ttft_s`` is that SLO starts from that single chip, watches
rolling TTFT percentiles, grows up to four chips during the bursts and
holds the objective.  (A scenario spec's ``fleet.autoscaler`` block is
the same class, left without a target: ``build_fleet`` fills it in from
the spec's ``slo.ttft_p99_s``.)

Run with:  PYTHONPATH=src python examples/autoscale_slo.py
"""

from repro.models.mllm import get_mllm
from repro.serving import (
    AutoscalerSpec,
    BurstyArrivals,
    FleetSimulator,
    RequestSampler,
    build_trace,
)

N_REQUESTS = 300
TARGET_P99_TTFT_S = 5.0


def main() -> None:
    model = get_mllm("sphinx-tiny")
    arrivals = BurstyArrivals(3.0, burst_multiplier=6.0, seed=7)
    shapes = RequestSampler(seed=7).sample(N_REQUESTS)
    trace = build_trace(arrivals.generate(N_REQUESTS), shapes)

    static = FleetSimulator(model, n_chips=1, max_batch_size=8).run(trace)
    static_p99 = static.report.ttft.p99
    print(f"static 1-chip fleet : p99 TTFT {static_p99:8.2f} s   "
          f"({'MISS' if static_p99 > TARGET_P99_TTFT_S else 'MET '} "
          f"{TARGET_P99_TTFT_S:.1f} s SLO)")

    fleet = FleetSimulator(
        model,
        autoscaler=AutoscalerSpec(
            target_p99_ttft_s=TARGET_P99_TTFT_S,
            min_chips=1,
            max_chips=4,
            window=32,
            min_observations=8,
            cooldown_s=0.5,
            scale_up_ratio=0.5,
        ),
        max_batch_size=8,
    )
    result = fleet.run(trace)
    auto_p99 = result.report.ttft.p99
    print(f"autoscaled fleet    : p99 TTFT {auto_p99:8.2f} s   "
          f"({'MISS' if auto_p99 > TARGET_P99_TTFT_S else 'MET '} "
          f"{TARGET_P99_TTFT_S:.1f} s SLO)")
    print(f"scaling             : peak {result.peak_chips} chips, "
          f"+{result.n_scale_ups}/-{result.n_scale_downs} events")
    for event in result.events:
        print(f"  t={event.time_s:7.2f}s  {event.n_chips_before} -> "
              f"{event.n_chips_after} chips  "
              f"(rolling p99 TTFT {event.rolling_p99_ttft_s:.2f} s)")


if __name__ == "__main__":
    main()
