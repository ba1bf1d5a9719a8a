"""Experiment harnesses reproducing every table and figure of the paper."""

from .runner import (
    ExperimentSpec,
    available_experiments,
    format_bytes,
    format_seconds,
    format_table,
    get_experiment,
    register_experiment,
    run_and_report,
)
from .parallel import (
    DesignPoint,
    evaluate_design_point,
    format_design_space_report,
    parallel_map,
    run_experiments_parallel,
    sweep_design_space,
)
from . import ablations
from . import planner_suite
from . import scenario_suite
from . import fig2_workload
from . import fig3_sparsity
from . import fig6_bandwidth
from . import fig10_config
from . import fig11_hetero
from . import fig12_pruning
from . import fig13_bandwidth_mgmt
from . import table2_gpu_comparison


register_experiment(
    ExperimentSpec(
        experiment_id="fig2",
        description="Workload analysis: latency breakdown, statistics, memory accesses",
        run=fig2_workload.run_fig2,
        report=fig2_workload.format_report,
    )
)
register_experiment(
    ExperimentSpec(
        experiment_id="fig3",
        description="FFN activation sparsity across decoder layers",
        run=fig3_sparsity.run_fig3,
        report=fig3_sparsity.format_report,
    )
)
register_experiment(
    ExperimentSpec(
        experiment_id="fig6",
        description="Effective bandwidth vs transfer size",
        run=fig6_bandwidth.run_fig6,
        report=fig6_bandwidth.format_report,
    )
)
register_experiment(
    ExperimentSpec(
        experiment_id="fig10",
        description="Design configuration, area and power at 22nm",
        run=fig10_config.run_fig10,
        report=fig10_config.format_report,
    )
)
register_experiment(
    ExperimentSpec(
        experiment_id="fig11",
        description="Homogeneous vs heterogeneous design speedups",
        run=fig11_hetero.run_fig11,
        report=fig11_hetero.format_report,
    )
)
register_experiment(
    ExperimentSpec(
        experiment_id="fig12",
        description="Activation-aware dynamic Top-k pruning evaluation",
        run=fig12_pruning.run_fig12,
        report=fig12_pruning.format_report,
    )
)
register_experiment(
    ExperimentSpec(
        experiment_id="fig13",
        description="Bandwidth management and batch decoding gains",
        run=fig13_bandwidth_mgmt.run_fig13,
        report=fig13_bandwidth_mgmt.format_report,
    )
)
register_experiment(
    ExperimentSpec(
        experiment_id="table2",
        description="EdgeMM vs mobile GPU comparison",
        run=table2_gpu_comparison.run_table2,
        report=table2_gpu_comparison.format_report,
    )
)
register_experiment(
    ExperimentSpec(
        experiment_id="ablations",
        description="Ablations: pruning threshold, DRAM bandwidth, SA geometry, cluster mix",
        run=ablations.run_ablations,
        report=ablations.format_report,
    )
)
register_experiment(
    ExperimentSpec(
        experiment_id="scenarios",
        description="Declarative serving-scenario suite (workload mixes, SLOs, autoscaling)",
        run=scenario_suite.run_scenario_suite,
        report=scenario_suite.format_report,
    )
)
register_experiment(
    ExperimentSpec(
        experiment_id="planner",
        description="SLO-aware capacity plans over the chip-design × fleet grid",
        run=planner_suite.run_planner_suite,
        report=planner_suite.format_report,
    )
)

__all__ = [
    "ablations",
    "planner_suite",
    "scenario_suite",
    "DesignPoint",
    "evaluate_design_point",
    "format_design_space_report",
    "parallel_map",
    "run_experiments_parallel",
    "sweep_design_space",
    "ExperimentSpec",
    "available_experiments",
    "format_bytes",
    "format_seconds",
    "format_table",
    "get_experiment",
    "register_experiment",
    "run_and_report",
    "fig2_workload",
    "fig3_sparsity",
    "fig6_bandwidth",
    "fig10_config",
    "fig11_hetero",
    "fig12_pruning",
    "fig13_bandwidth_mgmt",
    "table2_gpu_comparison",
]
