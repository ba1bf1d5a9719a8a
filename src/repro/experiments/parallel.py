"""The library's one process pool, and the CC:MC design-space sweep.

* :func:`parallel_map` — ``[fn(**params) for params in param_list]``
  across a process pool.  Exactly two options start one: ``python -m
  repro.experiments -j N`` (:func:`run_experiments_parallel`) and
  ``python -m repro.planner plan ... --jobs N`` (the ``processes`` of
  :func:`repro.planner.plan.plan_scenario`);
* :func:`run_experiments_parallel` — fans the registered paper experiments
  (``fig10``, ``fig11``, ...) out over processes, producing reports
  *identical* to the serial ``run_and_report`` path;
* :func:`sweep_design_space` — the CC:MC cluster-mix sweep used by
  ``examples/design_space_exploration.py``, priced in one pass of the
  array-native batch engine and returned as :class:`DesignPoint` rows.
  :func:`evaluate_design_point` is its scalar oracle; a sweep over an axis
  the batch engine cannot vectorise (a different model per point) maps it
  through :func:`parallel_map`.

Workers are forked on Linux, so the registry and model catalogue are
inherited and no per-task import cost is paid; other platforms use their
default start method (spawn on macOS/Windows, where forking a
numpy-initialised interpreter is unsafe).  A pool of one process or a map
of one task runs in the calling process, which by construction produces
the same results.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.batch import batch_run_request
from ..core.config import scaled_system
from ..core.simulator import PerformanceSimulator
from ..core.metrics import WorkloadResult
from ..models.mllm import InferenceRequest, get_mllm
from .runner import available_experiments, format_table, run_and_report


def _pool_context() -> multiprocessing.context.BaseContext:
    """The process-pool context for this platform.

    Fork is preferred on Linux (workers inherit the experiment registry and
    the model catalogue for free), but it is unsafe on macOS once numpy has
    touched Accelerate/Objective-C state — there CPython's own default is
    spawn, so defer to the platform default everywhere else.  Spawned
    workers re-import the task function's module, which pulls the registry
    back in through the package import.
    """
    if sys.platform == "linux":
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - exotic linux builds
            pass
    return multiprocessing.get_context()


def _call_task(task: Tuple[Callable[..., object], Dict[str, object]]) -> object:
    """Top-level (picklable) trampoline executed in worker processes."""
    fn, kwargs = task
    return fn(**kwargs)


def parallel_map(
    fn: Callable[..., object],
    param_list: Sequence[Mapping[str, object]],
    *,
    processes: int,
) -> List[object]:
    """``[fn(**params) for params in param_list]`` across ``processes`` workers.

    ``fn`` must be a module-level callable, and both the parameter values
    and the results must be picklable.  Results come back in input order.
    With one process or one task, every call runs in the calling process.
    """
    if processes < 1:
        raise ValueError("processes must be >= 1")
    tasks = [(fn, dict(params)) for params in param_list]
    if processes == 1 or len(tasks) <= 1:
        return [_call_task(task) for task in tasks]
    with _pool_context().Pool(processes=min(processes, len(tasks))) as pool:
        return pool.map(_call_task, tasks)


# ----------------------------------------------------------------------
# Registered paper experiments in parallel
# ----------------------------------------------------------------------
def _run_registered(experiment_id: str) -> str:
    """Worker: run one registered experiment and return its report."""
    return run_and_report(experiment_id)


def run_experiments_parallel(
    experiment_ids: Optional[Sequence[str]] = None,
    *,
    processes: Optional[int] = None,
) -> Dict[str, str]:
    """Run registered experiments across processes; reports keyed by id.

    The per-experiment report strings are byte-identical to the serial
    :func:`~repro.experiments.runner.run_and_report` output — the engine
    changes where the work runs, never what it computes.
    """
    requested = (
        list(experiment_ids) if experiment_ids is not None else available_experiments()
    )
    unknown = [name for name in requested if name not in available_experiments()]
    if unknown:
        raise KeyError(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"available: {', '.join(available_experiments())}"
        )
    reports = parallel_map(
        _run_registered,
        [{"experiment_id": name} for name in requested],
        processes=processes if processes is not None else (os.cpu_count() or 1),
    )
    return dict(zip(requested, reports))


# ----------------------------------------------------------------------
# Design-space sweep (examples/design_space_exploration.py)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DesignPoint:
    """One evaluated chip configuration of a design-space sweep."""

    n_groups: int
    cc_per_group: int
    mc_per_group: int
    area_mm2: float
    latency_s: float
    tokens_per_second: float
    tokens_per_second_per_mm2: float
    tokens_per_joule: float


def _design_point(
    geometry: Tuple[int, int, int], result: WorkloadResult, area_mm2: float
) -> DesignPoint:
    """One :class:`DesignPoint` row from a point's result and chip area."""
    n_groups, cc_per_group, mc_per_group = geometry
    tokens_per_s = result.tokens_per_second
    return DesignPoint(
        n_groups=n_groups,
        cc_per_group=cc_per_group,
        mc_per_group=mc_per_group,
        area_mm2=area_mm2,
        latency_s=result.total_latency_s,
        tokens_per_second=tokens_per_s,
        tokens_per_second_per_mm2=tokens_per_s / area_mm2,
        tokens_per_joule=result.tokens_per_joule or 0.0,
    )


def evaluate_design_point(
    n_groups: int,
    cc_per_group: int,
    mc_per_group: int,
    *,
    model_name: str = "sphinx-tiny",
    images: int = 1,
    prompt_text_tokens: int = 32,
    output_tokens: int = 64,
) -> DesignPoint:
    """Simulate one chip configuration on one request shape.

    The scalar oracle of :func:`sweep_design_space`, and the picklable
    point function of a sweep whose axes the batch engine cannot
    vectorise (map it through :func:`parallel_map`).
    """
    system_config = scaled_system(
        n_groups=n_groups,
        cc_clusters_per_group=cc_per_group,
        mc_clusters_per_group=mc_per_group,
    )
    simulator = PerformanceSimulator(system_config)
    result = simulator.run_request(
        get_mllm(model_name),
        InferenceRequest(
            images=images,
            prompt_text_tokens=prompt_text_tokens,
            output_tokens=output_tokens,
        ),
    )
    return _design_point(
        (n_groups, cc_per_group, mc_per_group),
        result,
        simulator.area_power.chip_area_mm2(),
    )


DEFAULT_CLUSTER_MIXES: Tuple[Tuple[int, int], ...] = (
    (4, 0),
    (3, 1),
    (2, 2),
    (1, 3),
    (0, 4),
)


def sweep_design_space(
    *,
    n_groups_options: Sequence[int] = (2, 4),
    cluster_mixes: Sequence[Tuple[int, int]] = DEFAULT_CLUSTER_MIXES,
    model_name: str = "sphinx-tiny",
    request: Optional[InferenceRequest] = None,
) -> List[DesignPoint]:
    """Evaluate every (group count, CC:MC mix) combination of the sweep.

    The whole grid prices as one broadcasted pass of the array-native
    batch engine, in sweep order (group counts outer, mixes inner, the
    empty ``(0, 0)`` mix skipped); each row is ``==`` the one
    :func:`evaluate_design_point` simulates (regression-tested, not
    approximate).
    """
    request = request or InferenceRequest(
        images=1, prompt_text_tokens=32, output_tokens=64
    )
    geometries = [
        (n_groups, cc_per_group, mc_per_group)
        for n_groups in n_groups_options
        for cc_per_group, mc_per_group in cluster_mixes
        if cc_per_group or mc_per_group
    ]
    batch = batch_run_request(
        get_mllm(model_name),
        request,
        [
            scaled_system(
                n_groups=n_groups,
                cc_clusters_per_group=cc_per_group,
                mc_clusters_per_group=mc_per_group,
            )
            for n_groups, cc_per_group, mc_per_group in geometries
        ],
    )
    return [
        _design_point(
            geometry,
            batch.result_for(index),
            batch.grid.area_power(index).chip_area_mm2(),
        )
        for index, geometry in enumerate(geometries)
    ]


def format_design_space_report(points: Sequence[DesignPoint]) -> str:
    """Render a design-space sweep as the usual aligned text table."""
    rows = [
        [
            point.n_groups,
            point.cc_per_group,
            point.mc_per_group,
            f"{point.area_mm2:.2f}",
            f"{point.latency_s:.3f}",
            f"{point.tokens_per_second:.1f}",
            f"{point.tokens_per_second_per_mm2:.2f}",
            f"{point.tokens_per_joule:.1f}",
        ]
        for point in points
    ]
    return format_table(
        [
            "groups",
            "CC/grp",
            "MC/grp",
            "area(mm^2)",
            "latency(s)",
            "tokens/s",
            "tokens/s/mm^2",
            "tokens/J",
        ],
        rows,
    )
