"""Traffic-scale serving: a bursty 100,000-request trace on EdgeMM.

Simulates one EdgeMM chip serving a bursty open-loop trace of 100k mixed
SPHINX-Tiny requests with continuous batching on the wave engine
(`repro.serving.engine`), printing wall-clock time alongside the
p50/p95/p99 latency and TTFT percentiles, then replays a 4-chip
least-loaded fleet on the same trace.

Run with:  PYTHONPATH=src python examples/serving_traffic.py
"""

import time

from repro.models.mllm import get_mllm
from repro.serving import (
    BurstyArrivals,
    ContinuousBatchingSimulator,
    FleetSimulator,
    RequestSampler,
    build_trace,
    format_report,
)

N_REQUESTS = 100_000


def main() -> None:
    model = get_mllm("sphinx-tiny")
    arrivals = BurstyArrivals(2.5, burst_multiplier=6.0, seed=42)
    shapes = RequestSampler(seed=42).sample(N_REQUESTS)
    trace = build_trace(arrivals.generate(N_REQUESTS), shapes)

    wall_start = time.perf_counter()
    chip = ContinuousBatchingSimulator(model=model, max_batch_size=16)
    result = chip.run(trace)
    wall = time.perf_counter() - wall_start
    print(format_report(result.report, title=f"Single chip ({N_REQUESTS} requests)"))
    print(
        f"peak decode batch  : {result.peak_batch_size} streams "
        f"({result.decode_steps} decode steps)"
    )
    print(
        f"wave-engine wall   : {wall:.2f} s -> {N_REQUESTS / wall:,.0f} requests "
        f"({result.decode_steps / wall:,.0f} decode steps) simulated per second"
    )

    print()
    fleet = FleetSimulator(model, n_chips=4, policy="least_loaded", max_batch_size=16)
    wall_start = time.perf_counter()
    fleet_result = fleet.run(trace)
    fleet_wall = time.perf_counter() - wall_start
    print(format_report(fleet_result.report, title="4-chip fleet (least-loaded)"))
    print(f"requests per chip  : {fleet_result.requests_per_chip}")
    print(f"fleet wall         : {fleet_wall:.2f} s")


if __name__ == "__main__":
    main()
