"""Design-space exploration: how many CC- vs MC-clusters should a group have?

The EdgeMM architecture is parameterisable (the paper notes the hardware can
be scaled by changing architecture parameters).  This example sweeps the
CC:MC cluster mix per group and the group count through the array-native
batch engine — the whole grid prices as one broadcasted NumPy pass — and
reports latency, throughput per area and energy per token: the kind of
ablation a designer would run before fixing the Fig. 10 configuration.

Each row equals the scalar simulation of its point
(``evaluate_design_point``); a sweep axis the batch engine cannot
vectorise, such as a different model per point, maps that function
through ``repro.experiments.parallel_map``.

Run with:  PYTHONPATH=src python examples/design_space_exploration.py
"""

import time

from repro.experiments import format_design_space_report, sweep_design_space


def main() -> None:
    started = time.perf_counter()
    points = sweep_design_space()
    elapsed = time.perf_counter() - started
    print(format_design_space_report(points))

    best = max(points, key=lambda point: point.tokens_per_second)
    print()
    print(
        f"best throughput: {best.tokens_per_second:.1f} tokens/s with "
        f"{best.n_groups} groups of {best.cc_per_group} CC + "
        f"{best.mc_per_group} MC clusters"
    )
    print(
        "The mixed configurations dominate the homogeneous corners, which is "
        "the heterogeneity argument of the paper in design-space form."
    )
    print(
        f"(swept {len(points)} configurations in {elapsed * 1e3:.0f} ms "
        "through the batch engine)"
    )


if __name__ == "__main__":
    main()
